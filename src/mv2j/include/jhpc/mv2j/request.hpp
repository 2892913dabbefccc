// Non-blocking requests of the binding core (both vendors).
//
// A bindings-level request wraps the native request plus whatever staging
// state the Java layer created for it: for array operations the pooled
// mpjbuf buffer must stay alive until completion, and irecv must copy the
// staged bytes back into the Java array after the native receive lands.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "jhpc/minimpi/request.hpp"
#include "jhpc/mv2j/policy.hpp"
#include "jhpc/mv2j/types.hpp"

namespace jhpc::mv2j {

/// Handle to an in-flight non-blocking operation (mpi.Request). The name
/// waitFor() mirrors the Java bindings (Request.waitFor()).
class Request {
 public:
  Request() = default;

  bool isActive() const { return native_.valid() || completion_ != nullptr; }

  /// Block until complete; runs the staged completion action (array
  /// copy-back, buffer release) and returns the Status.
  Status waitFor();

  /// Non-blocking completion probe; on true the completion action has run
  /// and `status`, when non-null, is filled.
  bool test(Status* status = nullptr);

  /// Wait for all (Request.waitAll).
  static void waitAll(std::span<Request> requests);

 private:
  template <bindings::VendorPolicy>
  friend class bindings::Comm;
  struct CompletionState {
    /// Runs exactly once after the native request completes.
    std::function<void(const minimpi::Status&)> on_complete;
  };

  Request(minimpi::Request native, std::shared_ptr<CompletionState> completion)
      : native_(std::move(native)), completion_(std::move(completion)) {}

  minimpi::Request native_;
  std::shared_ptr<CompletionState> completion_;
};

}  // namespace jhpc::mv2j
