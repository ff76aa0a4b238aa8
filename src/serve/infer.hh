/**
 * @file
 * One inference under the serving layer's transient-fault retry
 * contract, shared by the daemon's in-process workers (server.cc)
 * and the supervised worker processes (supervisor.cc) so both retry
 * and back off the same way.
 */

#ifndef SNAPEA_SERVE_INFER_HH
#define SNAPEA_SERVE_INFER_HH

#include <functional>
#include <string>
#include <string_view>

#include "nn/network.hh"
#include "snapea/engine.hh"
#include "util/status.hh"

namespace snapea::serve {

/**
 * Run @p net on the raw float32 @p input through @p engine.  A
 * TransientError (injected fault, watchdog-cut stall) or
 * std::bad_alloc is retried until @p attempts tries are spent,
 * sleeping between tries for a backoff that starts at
 * @p backoff_ms, doubles, and is capped at 8x the start.
 * @p before_retry, when set, runs before each backoff; a non-OK
 * Status from it ends the request with that Status (the in-process
 * path counts the retry there and sheds a cancelled or expired
 * request).
 *
 * @return The output's raw float32 bytes, Unavailable once the tries
 *         are spent, or the Status @p before_retry returned.
 */
StatusOr<std::string>
inferWithRetry(const Network &net, SnapeaEngine &engine,
               std::string_view input, int attempts, int backoff_ms,
               const std::function<Status()> &before_retry = {});

} // namespace snapea::serve

#endif // SNAPEA_SERVE_INFER_HH
