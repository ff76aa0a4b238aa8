/**
 * @file
 * perfbench: runs one benchmark workload and writes its result as one
 * JSON object.  run.py builds this binary and drives it; see
 * perfbench/README.md for the workloads and metrics.
 *
 * usage: perfbench --workload <offline_zoo|serve_steady>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  --workdir <dir> --serve-exe <path> [--out <file>]
 *
 * A traced run profiles every layer: it gives half of --seconds to
 * the named workload's traced run and half to the other workload's,
 * whose metrics fill in the layers the named one does not reach
 * (serve for offline_zoo; the zoo's kernels, nn and engine for
 * serve_steady).  Where both report a metric, the named workload's
 * value is kept.
 *
 * Exit status: 0 with a result written, 1 on a run failure, 2 on a
 * usage error.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hh"
#include "util/thread_pool.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

double
number(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0')
        usage(flag + ": '" + text + "' is not a number");
    return v;
}

/** A workload: its runner and fixed pool size and set-up count. */
struct Workload
{
    const char *name;
    Result (*run)(const Options &);
    int pool;   ///< Images per model pool.
    int setups; ///< Set-up repetitions (setup_s is their median).
};

constexpr Workload kWorkloads[] = {
    {"offline_zoo", runOffline, 16, 9},
    {"serve_steady", runServe, 32, 5},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

Options
optionsFor(const Options &base, const Workload &w)
{
    Options o = base;
    o.workload = w.name;
    o.pool = w.pool;
    o.setups = w.setups;
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(a + " requires a value");
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = static_cast<uint64_t>(number(a, v));
        else if (a == "--seconds")
            opt.seconds = number(a, v);
        else if (a == "--trace")
            opt.trace = number(a, v) != 0;
        else if (a == "--workdir")
            opt.workdir = v;
        else if (a == "--out")
            out_path = v;
        else if (a == "--serve-exe")
            opt.serve_exe = v;
        else
            usage("unknown option '" + a + "'");
    }
    const Workload *own = findWorkload(opt.workload);
    if (!own)
        usage("unknown workload '" + opt.workload + "'");
    if (opt.seconds <= 0 || opt.workdir.empty() || opt.serve_exe.empty())
        usage("--seconds must be positive; --workdir and --serve-exe "
              "are required");

    ::mkdir(opt.workdir.c_str(), 0755); // may exist already

    // One compute thread in the bench process: the thread topology is
    // part of the workload definition (README "Thread topology").
    snapea::util::setThreadCount(1);

    Result r;
    try {
        if (!opt.trace) {
            r = own->run(optionsFor(opt, *own));
        } else {
            Options half = opt;
            half.seconds = opt.seconds / 2;
            r = own->run(optionsFor(half, *own));
            for (const Workload &w : kWorkloads) {
                if (&w == own)
                    continue;
                // Only the other workload's per-layer metrics are
                // kept, and its set-up figures never are: one set-up.
                Options o = optionsFor(half, w);
                o.setups = 1;
                absorb(r, w.run(o), std::string("profiled_with_") + w.name);
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    const std::string json = toJson(r);
    if (out_path.empty()) {
        std::printf("%s\n", json.c_str());
    } else {
        std::ofstream f(out_path);
        f << json << "\n";
        if (!f) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
    }
    return 0;
}
