// Dijkstra-Scholten diffusing-computation termination detection.
//
// The runtime's second detector (TerminationAlgorithm::kDijkstraScholten):
// every SiteServer query context holds one node, the root on the
// originating site, and the server only moves messages — it sends the acks
// the node asks for and routes incoming acks back to on_ack. The property
// tests cross-check it against the weighted-message implementation
// (term/weighted.hpp): on identical message traces both must report
// termination at the same point. It is the natural choice when message
// piggybacking is unavailable, since it needs only signal (ack) edges, not
// weight fields.
//
// Protocol recap: computation messages build a dynamic engagement tree
// rooted at the originator. Every computation message is eventually
// acknowledged; a node acknowledges its *engaging* message (the one that
// made it active) only once it is idle and has itself been acknowledged for
// every message it sent. Termination = the root is idle with no outstanding
// acknowledgements.
//
// Thread ownership (DESIGN.md §10): deliberately lock-free. A node's state
// is confined to its site's event-loop thread — drain workers never touch
// termination accounting (ParallelExecution buffers their side effects
// until the pool joins), so adding a mutex here would annotate a race that
// cannot occur while hiding the confinement that prevents it.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/types.hpp"

namespace hyperfile {

/// Per-node state of the Dijkstra-Scholten algorithm. The transport is
/// external: the node tells the caller when to emit an ack via the
/// `ready_to_detach` test, and the caller routes acks back with `on_ack`.
class DijkstraScholtenNode {
 public:
  explicit DijkstraScholtenNode(SiteId self, bool is_root = false)
      : self_(self), is_root_(is_root), engaged_(is_root) {}

  SiteId self() const { return self_; }
  bool is_root() const { return is_root_; }
  bool engaged() const { return engaged_; }
  std::uint64_t deficit() const { return deficit_; }
  std::optional<SiteId> parent() const { return parent_; }

  /// A computation message arrives from `from`. Returns true if this
  /// message engaged the node (no ack yet — it becomes the tree edge);
  /// returns false if the node was already engaged and the caller must send
  /// an immediate ack to `from`.
  bool on_message(SiteId from) {
    if (!engaged_) {
      engaged_ = true;
      parent_ = from;
      return true;
    }
    return false;
  }

  /// Record sending a computation message (increases our deficit).
  void on_send() { ++deficit_; }

  /// An ack for one of our computation messages arrived. Acks come off
  /// the network, so one at zero deficit (stray, or misaddressed) is
  /// ignored rather than wrapping the deficit around.
  void on_ack() {
    if (deficit_ > 0) --deficit_;
  }

  /// Mark local work drained / resumed.
  void set_idle(bool idle) { idle_ = idle; }
  bool idle() const { return idle_; }

  /// True when this (non-root) node should detach: ack its engaging message
  /// and become disengaged. The caller sends the ack to *parent()* and then
  /// calls detach().
  bool ready_to_detach() const {
    return engaged_ && !is_root_ && idle_ && deficit_ == 0;
  }

  void detach() {
    assert(ready_to_detach());
    engaged_ = false;
    parent_.reset();
  }

  /// Root-side termination test.
  bool terminated() const { return is_root_ && idle_ && deficit_ == 0; }

 private:
  SiteId self_;
  bool is_root_;
  bool engaged_;
  bool idle_ = true;
  std::uint64_t deficit_ = 0;
  std::optional<SiteId> parent_;
};

}  // namespace hyperfile
