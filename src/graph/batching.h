#ifndef CPDG_GRAPH_BATCHING_H_
#define CPDG_GRAPH_BATCHING_H_

#include <vector>

#include "graph/graph_store.h"

namespace cpdg::graph {

/// \brief A chronological slice of events, the unit of DGNN batch
/// processing (the Monte-Carlo batching of Sec. IV-D).
struct EventBatch {
  /// Index of the first event in the batch within the source graph.
  int64_t first_event_index = 0;
  std::vector<Event> events;
  bool empty() const { return events.empty(); }
  int64_t size() const { return static_cast<int64_t>(events.size()); }
};

}  // namespace cpdg::graph

#endif  // CPDG_GRAPH_BATCHING_H_
