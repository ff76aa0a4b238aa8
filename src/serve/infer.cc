#include "serve/infer.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>
#include <thread>

#include "util/fault.hh"

namespace snapea::serve {

namespace {

/** Backoff never exceeds this multiple of the configured base. */
constexpr int kBackoffCapFactor = 8;

} // namespace

StatusOr<std::string>
inferWithRetry(const Network &net, SnapeaEngine &engine,
               std::string_view input, int attempts, int backoff_ms,
               const std::function<Status()> &before_retry)
{
    Tensor in(net.inputShape());
    std::memcpy(in.data(), input.data(), input.size());

    const int backoff_cap_ms = backoff_ms * kBackoffCapFactor;
    for (int attempt = 1;; ++attempt) {
        try {
            const Tensor out = net.forward(in, &engine);
            return std::string(
                reinterpret_cast<const char *>(out.data()),
                out.size() * sizeof(float));
        } catch (const TransientError &) {
            // injected fault or watchdog-cut stall: retry below
        } catch (const std::bad_alloc &) {
            // alloc pressure: worth one more try
        }
        if (attempt >= attempts) {
            return statusf(StatusCode::Unavailable,
                           "inference failed after %d tries", attempts);
        }
        if (before_retry) {
            if (Status st = before_retry(); !st.ok())
                return st;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, backoff_cap_ms);
    }
}

} // namespace snapea::serve
