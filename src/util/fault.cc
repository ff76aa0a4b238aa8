#include "util/fault.hh"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "util/debug_mutex.hh"
#include "util/logging.hh"

namespace snapea {

const char *
faultDomainName(FaultDomain domain)
{
    switch (domain) {
      case FaultDomain::Io: return "io";
      case FaultDomain::Compute: return "compute";
      case FaultDomain::Alloc: return "alloc";
      case FaultDomain::Slow: return "slow";
      case FaultDomain::Crash: return "crash";
    }
    return "?";
}

namespace {

/** The fixed registry of interceptable (domain, op) pairs. */
struct OpInfo
{
    FaultDomain domain;
    const char *name;
};

constexpr OpInfo kOps[] = {
    {FaultDomain::Io, "open"},      {FaultDomain::Io, "read"},
    {FaultDomain::Io, "write"},     {FaultDomain::Io, "fsync"},
    {FaultDomain::Io, "rename"},    {FaultDomain::Io, "lock"},
    {FaultDomain::Compute, "task"}, {FaultDomain::Alloc, "tensor"},
    {FaultDomain::Slow, "task"},    {FaultDomain::Crash, "worker"},
};
constexpr int kNumOps = sizeof(kOps) / sizeof(kOps[0]);

int
opIndex(FaultDomain domain, const std::string &name)
{
    for (int i = 0; i < kNumOps; ++i) {
        if (kOps[i].domain == domain && name == kOps[i].name)
            return i;
    }
    return -1;
}

struct FaultRule
{
    int op = -1;            ///< Index into kOps.
    bool every = false;     ///< "*": fail every occurrence.
    uint64_t nth = 0;       ///< 1-based occurrence to fail.
};

struct FaultState
{
    DebugMutex mu{"FaultState::mu"};
    /** False only once the env has been read and no rules resulted,
     *  letting the hot path (every pool task) skip the lock. */
    std::atomic<bool> maybe_active{true};
    bool env_checked SNAPEA_GUARDED_BY(mu) = false;
    std::vector<FaultRule> rules SNAPEA_GUARDED_BY(mu);
    uint64_t counts[kNumOps] SNAPEA_GUARDED_BY(mu) = {};
};

FaultState &
faultState()
{
    static FaultState state;
    return state;
}

bool
parseDomainName(const std::string &name, FaultDomain &domain)
{
    for (FaultDomain d : {FaultDomain::Io, FaultDomain::Compute,
                          FaultDomain::Alloc, FaultDomain::Slow,
                          FaultDomain::Crash}) {
        if (name == faultDomainName(d)) {
            domain = d;
            return true;
        }
    }
    return false;
}

/** Parse "<domain>:<op>:<nth>[,...]"; empty clears. */
Status
parseFaultSpec(const std::string &spec, std::vector<FaultRule> &out)
{
    out.clear();
    std::istringstream ss(spec);
    std::string entry;
    while (std::getline(ss, entry, ',')) {
        if (entry.empty())
            continue;
        const size_t c1 = entry.find(':');
        const size_t c2 =
            c1 == std::string::npos ? c1 : entry.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos) {
            return statusf(StatusCode::InvalidArgument,
                           "bad fault spec entry '%s' (want "
                           "<domain>:<op>:<nth>)", entry.c_str());
        }
        const std::string domain_name = entry.substr(0, c1);
        FaultDomain domain;
        if (!parseDomainName(domain_name, domain)) {
            return statusf(StatusCode::InvalidArgument,
                           "unknown fault domain '%s'",
                           domain_name.c_str());
        }
        FaultRule rule;
        const std::string op_name = entry.substr(c1 + 1, c2 - c1 - 1);
        rule.op = opIndex(domain, op_name);
        if (rule.op < 0) {
            return statusf(StatusCode::InvalidArgument,
                           "unknown fault op '%s' for domain '%s'",
                           op_name.c_str(), domain_name.c_str());
        }
        const std::string nth = entry.substr(c2 + 1);
        if (nth == "*") {
            rule.every = true;
        } else {
            char *end = nullptr;
            rule.nth = std::strtoull(nth.c_str(), &end, 10);
            if (nth.empty() || *end != '\0' || rule.nth == 0) {
                return statusf(StatusCode::InvalidArgument,
                               "bad fault occurrence '%s'",
                               nth.c_str());
            }
        }
        out.push_back(rule);
    }
    return Status();
}

/**
 * Read SNAPEA_FAULT once; @p state.mu must be held.  The SL013
 * checker is lexical and cannot see a lock taken by the caller, so
 * the guarded accesses below carry allow() with this contract as the
 * justification.
 */
void
lazyEnvLocked(FaultState &state)
{
    if (state.env_checked) // snapea-lint: allow(SL013)
        return;
    state.env_checked = true; // snapea-lint: allow(SL013)
    if (const char *env = std::getenv("SNAPEA_FAULT")) {
        const Status st =
            parseFaultSpec(env, state.rules); // snapea-lint: allow(SL013)
        if (!st.ok()) {
            warn("ignoring SNAPEA_FAULT: %s", st.toString().c_str());
            state.rules.clear(); // snapea-lint: allow(SL013)
        }
    }
    state.maybe_active.store(!state.rules.empty(), // snapea-lint: allow(SL013)
                             std::memory_order_relaxed);
}

} // namespace

Status
setFaultSpec(const std::string &spec)
{
    FaultState &state = faultState();
    std::lock_guard lock(state.mu);
    state.env_checked = true;  // explicit spec overrides SNAPEA_FAULT
    for (uint64_t &c : state.counts)
        c = 0;
    const Status st = parseFaultSpec(spec, state.rules);
    state.maybe_active.store(!state.rules.empty(),
                             std::memory_order_relaxed);
    return st;
}

namespace {

/** Shared core of the checkpoints: count the operation, report a
 *  match, and expose the occurrence ordinal (the crash domain keys
 *  its manner of death on it). */
bool
shouldFailCounted(FaultDomain domain, const char *op,
                  uint64_t *count_out)
{
    FaultState &state = faultState();
    if (!state.maybe_active.load(std::memory_order_relaxed))
        return false;
    std::lock_guard lock(state.mu);
    lazyEnvLocked(state);
    if (state.rules.empty())
        return false;
    const int idx = opIndex(domain, op);
    if (idx < 0)
        return false;
    const uint64_t count = ++state.counts[idx];
    if (count_out)
        *count_out = count;
    for (const FaultRule &rule : state.rules) {
        if (rule.op == idx && (rule.every || rule.nth == count))
            return true;
    }
    return false;
}

} // namespace

bool
faultShouldFail(FaultDomain domain, const char *op)
{
    return shouldFailCounted(domain, op, nullptr);
}

void
faultCrashPoint(const char *site)
{
    uint64_t hit = 0;
    if (!shouldFailCounted(FaultDomain::Crash, site, &hit))
        return;
    // The manner of death cycles with the hit ordinal so one spec
    // covers a wild pointer, a tripped assertion, and a silent exit.
    // These are the whole point of the crash domain — the terminators
    // below are injected deaths under test, not library error paths.
    switch ((hit - 1) % 3) {
      case 0: {
        // Restore the default action first: a runtime that installed
        // its own SIGSEGV handler (a sanitizer, a crash reporter)
        // would otherwise turn the injected death into an exit.
        struct sigaction dfl = {};
        dfl.sa_handler = SIG_DFL;
        sigemptyset(&dfl.sa_mask);
        sigaction(SIGSEGV, &dfl, nullptr);
        raise(SIGSEGV);
        break;
      }
      case 1:
        abort(); // snapea-lint: allow(SL001)
        break;
      default:
        _exit(42); // snapea-lint: allow(SL001)
    }
}

namespace {

constexpr int kDefaultWatchdogMs = 1000;

std::atomic<int> g_watchdog_override{0};

} // namespace

int
watchdogMillis()
{
    const int override_ms =
        g_watchdog_override.load(std::memory_order_relaxed);
    if (override_ms > 0)
        return override_ms;
    static const int env_ms = [] {
        if (const char *env = std::getenv("SNAPEA_WATCHDOG_MS")) {
            char *end = nullptr;
            const long v = std::strtol(env, &end, 10);
            if (end != env && *end == '\0' && v > 0 && v <= 600000)
                return static_cast<int>(v);
            warn("ignoring SNAPEA_WATCHDOG_MS='%s' (want 1..600000)",
                 env);
        }
        return kDefaultWatchdogMs;
    }();
    return env_ms;
}

void
setWatchdogMillis(int ms)
{
    g_watchdog_override.store(ms > 0 ? ms : 0,
                              std::memory_order_relaxed);
}

void
faultTaskPoint()
{
    if (faultShouldFail(FaultDomain::Slow, "task")) {
        // An injected stall: burn through the watchdog budget in
        // small sleeps, then surface the hang as a retryable fault.
        const int budget = watchdogMillis();
        for (int waited = 0; waited < budget; waited += 5)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        throw TransientError(
            "injected slow task: stalled past the " +
            std::to_string(budget) + " ms watchdog");
    }
    if (faultShouldFail(FaultDomain::Compute, "task"))
        throw TransientError("injected compute fault in worker task");
}

} // namespace snapea
