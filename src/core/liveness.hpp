// Liveness tokens for asynchronous callbacks.
//
// Simulated entities hand callbacks to the network (packet delivery sinks)
// that may fire after the entity is destroyed — e.g. a tester finishes and
// returns while its last packets are still queued on the access link. A
// LivenessToken member makes such callbacks self-disabling: capture
// `alive = token.watch()` and bail out when `!*alive`.
#pragma once

#include <memory>

namespace swiftest::core {

class LivenessToken {
 public:
  LivenessToken() : alive_(std::make_shared<bool>(true)) {}
  ~LivenessToken() { *alive_ = false; }

  LivenessToken(const LivenessToken&) = delete;
  LivenessToken& operator=(const LivenessToken&) = delete;

  /// Shared view of the owner's liveness; true until the token is destroyed.
  [[nodiscard]] std::shared_ptr<const bool> watch() const noexcept { return alive_; }

 private:
  std::shared_ptr<bool> alive_;
};

}  // namespace swiftest::core
