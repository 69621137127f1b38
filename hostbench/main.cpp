/**
 * @file
 * hostbench: the host-time benchmark of the simulator pipeline.
 *
 *   hostbench --workload compile|search|verify|serve --seed N
 *             --seconds S --trace 0|1
 *             [--expected-dir DIR] [--workdir DIR] [--trace-out FILE]
 *   hostbench --selftest [--expected-dir DIR] [--workdir DIR]
 *   hostbench --workload compile|search --record [--expected-dir DIR]
 *
 * An untraced run prints the end-to-end metrics; a traced run prints
 * the per-layer metrics and writes its spans as a Chrome trace.  The
 * last line of standard output is one JSON object {correct, attempted,
 * failed, metrics}.  A wrong output counts as failed, is named with
 * its op and seed on stderr, and makes the exit code 1 after the
 * metrics are printed.  Thread counts derive from the machine's
 * hardware threads (nproc).
 *
 * The program also starts itself as `--setup-only INDEX` to time each
 * set-up in a fresh process (see timeFreshSetUp).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "support/json.h"
#include "support/run_metadata.h"
#include "support/thread_pool.h"
#include "sim/sim_config.h"
#include "workloads.h"

using namespace hostbench;
using graphene::json::Value;

namespace
{

struct Args
{
    RunConfig run;
    std::string traceOut;
    bool selftest = false;
    /** Set in a set-up process started by timeFreshSetUp. */
    int setupIndex = -1;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload compile|search|verify|serve"
                 " --seed N --seconds S --trace 0|1\n"
                 "                 [--expected-dir DIR] [--workdir DIR]"
                 " [--trace-out FILE]\n"
                 "       hostbench --selftest [--expected-dir DIR]"
                 " [--workdir DIR]\n"
                 "       hostbench --workload compile|search --record"
                 " [--expected-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.run.nproc = static_cast<int>(std::thread::hardware_concurrency());
    if (a.run.nproc < 1)
        a.run.nproc = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                a.run.workload = next();
            else if (arg == "--seed")
                a.run.seed = std::stoull(next());
            else if (arg == "--seconds")
                a.run.seconds = std::stod(next());
            else if (arg == "--trace")
                a.run.traced = std::stoi(next()) != 0;
            else if (arg == "--expected-dir")
                a.run.expectedDir = next();
            else if (arg == "--workdir")
                a.run.workDir = next();
            else if (arg == "--trace-out")
                a.traceOut = next();
            else if (arg == "--record")
                a.run.record = true;
            else if (arg == "--selftest")
                a.selftest = true;
            else if (arg == "--setup-only")
                a.setupIndex = std::stoi(next());
            else
                usage(("unknown argument " + arg).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (a.run.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Every per-layer metric a traced run prints, on every workload (0
 *  where the workload never calls the layer). */
std::vector<MetricDef>
perLayerMetrics()
{
    std::vector<MetricDef> defs;
    for (const std::string &layer : timedLayers()) {
        defs.push_back({layer + "_ms", "ms"});
        defs.push_back({layer + "_share", "%"});
    }
    const std::vector<MetricDef> rest = {
        {"unattributed_ms", "ms"},
        {"unattributed_share", "%"},
        {"trace.overhead_ops_per_s", "1/s"},
        {"trace.overhead_pct", "%"},
        {"sim.kernels_launched", "1/op"},
        {"sim.blocks_per_s", "1/s"},
        {"ir.bytes", "B"},
        {"codegen.bytes", "B"},
        {"profile.json_bytes", "B"},
        {"schedule.oracle_evals", "1/op"},
        {"schedule.fusions_tried", "1/op"},
        {"schedule.fusions_kept", "1/op"},
        {"schedule.kept_ratio", "ratio"},
        {"tune.space", "1/op"},
        {"tune.pruned_lint", "1/op"},
        {"tune.evaluated", "1/op"},
        {"tune.evaluated_ratio", "ratio"},
        {"service.handle_full_ms", "ms"},
        {"service.handle_filtered_ms", "ms"},
        {"service.handle_schedule_ms", "ms"},
        {"service.transport_ms", "ms"},
        {"service.transport_full_ms", "ms"},
        {"service.transport_filtered_ms", "ms"},
        {"service.transport_schedule_ms", "ms"},
        {"service.transport_stats_ms", "ms"},
        {"service.hit_ratio", "ratio"},
        {"service.memo_entries", "count"},
        {"service.errors", "count"},
        {"service.resp_bytes", "B"},
        {"serve.cold_p50_ms", "ms"},
    };
    defs.insert(defs.end(), rest.begin(), rest.end());
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        classes = {
            {"compile",
             {"tc_gemm", "simple_gemm", "layernorm", "mlp", "lstm",
              "fmha"}},
            {"search",
             {"mlp_graph", "fig15_graph", "random_graph", "tune_tc_gemm",
              "tune_layernorm", "tune_fmha", "tune_mlp"}},
            {"verify",
             {"tc_gemm", "simple_gemm", "pointwise", "layernorm", "mlp",
              "lstm", "fmha"}},
            {"serve", {"full", "filtered", "schedule", "stats"}},
        };
    for (const auto &wc : classes)
        for (const std::string &c : wc.second)
            defs.push_back({wc.first + "." + c + "_p50_ms", "ms"});
    return defs;
}

/** The gated end-to-end metrics.  Runs also print op_p99_ms, but its
 *  run-to-run spread (up to a quarter of its median) leaves no room
 *  for a regression bound. */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},   {"ops_per_s", "1/s"},   {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"}, {"peak_rss_mb", "MB"},
};

/** Put @p out's metrics into the fixed list @p defs: missing ones are
 *  0, derived ratios are filled in. */
std::vector<Metric>
normalize(const Outcome &out, const std::vector<MetricDef> &defs)
{
    std::map<std::string, double> v;
    for (const Metric &m : out.metrics)
        v[m.name] = m.value;
    auto ratio = [&](const std::string &num, const std::string &den) {
        return v[den] > 0 ? v[num] / v[den] : 0.0;
    };
    v["schedule.kept_ratio"] =
        ratio("schedule.fusions_kept", "schedule.fusions_tried");
    v["tune.evaluated_ratio"] = ratio("tune.evaluated", "tune.space");
    // Blocks per op over functional launch seconds per op.
    const double launchMs = v["sim.functional_ms"] + v["sim.sanitized_ms"];
    v["sim.blocks_per_s"] =
        launchMs > 0 ? 1000.0 * v["sim.blocks"] / launchMs : 0.0;
    std::vector<Metric> result;
    for (const MetricDef &d : defs) {
        const auto it = v.find(d.name);
        result.push_back({d.name, it == v.end() ? 0.0 : it->second,
                          d.unit});
    }
    return result;
}

std::string
numberText(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

int
report(const Args &args, Outcome &out)
{
    const std::vector<Metric> metrics = args.run.traced
        ? normalize(out, perLayerMetrics())
        : normalize(out, kEndToEnd);
    for (const Metric &m : metrics)
        std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    // What the run measured beyond the fixed list (not in the JSON).
    for (const Metric &m : out.metrics)
        if (std::none_of(metrics.begin(), metrics.end(),
                         [&](const Metric &k) { return k.name == m.name; }))
            std::printf("%-34s %16.6f %s (not gated)\n", m.name.c_str(),
                        m.value, m.unit.c_str());
    const double failedRatio = out.attempted > 0
        ? static_cast<double>(out.failed)
            / static_cast<double>(out.attempted)
        : 1.0;
    std::printf("%-34s %16.6f (%lld of %lld ops)\n", "failed_ratio",
                failedRatio, (long long)out.failed,
                (long long)out.attempted);
    for (const std::string &f : out.failures)
        std::fprintf(stderr, "FAILED %s\n", f.c_str());

    if (args.run.traced && !args.traceOut.empty()) {
        std::ofstream f(args.traceOut);
        if (f)
            trace::writeChromeTrace(f, out.spans);
        else
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         args.traceOut.c_str());
    }

    std::string line = "{\"correct\": ";
    line += out.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            line += ", ";
        line += graphene::json::quote(metrics[i].name) + ": {\"value\": "
            + numberText(metrics[i].value) + ", \"unit\": "
            + graphene::json::quote(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return out.failed == 0 ? 0 : 1;
}

int
selfTest(const Args &args)
{
    int failures = 0;
    auto expect = [&](const std::string &what, const std::string &err) {
        std::printf("selftest %-44s %s\n", what.c_str(),
                    err.empty() ? "ok" : ("FAIL: " + err).c_str());
        failures += err.empty() ? 0 : 1;
    };
    auto sequenceCheck = [&](const std::string &name,
                             const std::function<std::string(uint64_t)>
                                 &seq) {
        const std::string a = seq(7), b = seq(7), c = seq(8);
        expect(name + " same seed, same op sequence",
               a == b ? "" : "sequences differ");
        expect(name + " other seed, other op sequence",
               a != c ? "" : "sequences equal");
    };
    const auto compile = makeCompileWorkload(args.run.expectedDir, false);
    const auto search = makeSearchWorkload(args.run.expectedDir, false, 1);
    const auto verify = makeVerifyWorkload(1);
    for (const auto &[name, w] :
         {std::pair<std::string, const SingleCallerWorkload *>{
              "compile", compile.get()},
          {"search", search.get()},
          {"verify", verify.get()}})
        sequenceCheck(name, [w = w](uint64_t seed) {
            return opSequence(*w, seed, 3 * static_cast<int64_t>(
                                                w->catalogue().size()));
        });
    sequenceCheck("serve", [&](uint64_t seed) {
        return serveSequence(seed, 200, args.run.nproc);
    });
    expect("compile checker rejects a changed sim_us",
           selfTestCompileChecker(args.run.expectedDir));
    expect("verify checker rejects a flipped fp16 bit",
           selfTestVerifyChecker(args.run.nproc));
    expect("serve checker rejects a changed payload byte",
           selfTestServeChecker(args.run));
    std::printf("selftest %s\n", failures ? "FAILED" : "passed");
    return failures ? 1 : 0;
}

/** The single-caller workload @p cfg names, or null for `serve`. */
std::unique_ptr<SingleCallerWorkload>
makeWorkload(const RunConfig &cfg)
{
    const std::string &w = cfg.workload;
    if (cfg.record && w != "compile" && w != "search")
        usage("--record applies to compile and search");
    if (w == "compile")
        return makeCompileWorkload(cfg.expectedDir, cfg.record);
    if (w == "search")
        return makeSearchWorkload(cfg.expectedDir, cfg.record, cfg.nproc);
    if (w == "verify")
        return makeVerifyWorkload(cfg.nproc);
    if (w != "serve")
        usage("unknown workload");
    return nullptr;
}

/** A set-up process: one set-up, reported as done before teardown. */
int
setUpOnly(const Args &args, Clock::time_point mainStart)
{
    moveToCpu(args.setupIndex);
    Outcome out;
    if (const auto w = makeWorkload(args.run)) {
        const double programSeconds = w->setUp(args.run.seed, out);
        reportSetUpDone(out, mainStart, programSeconds);
    } else {
        setUpServeOnly(args.run, mainStart, out);
    }
    for (const std::string &f : out.failures)
        std::fprintf(stderr, "FAILED %s\n", f.c_str());
    return out.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point mainStart = Clock::now();
    const Args args = parseArgs(argc, argv);
    // Thread counts are explicit: the shared pool (functional block
    // sharding, pipelined daemon batches) gets nproc threads in total.
    graphene::ThreadPool::setGlobalWorkers(args.run.nproc - 1);
    graphene::sim::setDefaultThreads(args.run.nproc);

    try {
        if (args.setupIndex >= 0)
            return setUpOnly(args, mainStart);

        const Value meta = graphene::runMetadata(args.run.nproc);
        std::printf("hostbench workload=%s seed=%llu seconds=%g trace=%d "
                    "nproc=%d build=%s git=%s\n",
                    args.selftest ? "selftest" : args.run.workload.c_str(),
                    (unsigned long long)args.run.seed, args.run.seconds,
                    args.run.traced ? 1 : 0, args.run.nproc,
                    HOSTBENCH_BUILD_TYPE,
                    meta.at("git_sha").asString().c_str());
        if (args.selftest)
            return selfTest(args);
        const auto w = makeWorkload(args.run);
        Outcome out =
            w ? runSingleCaller(*w, args.run) : runServe(args.run);
        return report(args, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
}
