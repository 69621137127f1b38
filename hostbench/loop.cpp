#include "support/events.h"
#include "workloads.h"

namespace hostbench
{

using namespace graphene;

namespace
{

/** Library counters read from the event log after every op. */
const char *const kEventCounters[] = {
    "sim.kernels_launched", "schedule.oracle_evals",
    "schedule.fusions_tried", "schedule.fusions_kept",
    "tune.space", "tune.pruned_lint", "tune.evaluated",
};

/** One measured op: its catalogue class and latency. */
struct OpSample
{
    std::string cls;
    double ms = 0;
};

struct Phase
{
    std::vector<OpSample> samples;
    double opMs = 0;
    Counts counts;

    double opsPerSecond() const
    {
        return opMs > 0 ? 1000.0 * static_cast<double>(samples.size())
                / opMs
                        : 0;
    }
    std::vector<double> latencies() const
    {
        std::vector<double> v;
        for (const OpSample &s : samples)
            v.push_back(s.ms);
        return v;
    }
};

/** runOp, with an escaping exception reported as the op's failure. */
std::string
runChecked(SingleCallerWorkload &w, size_t entry, uint64_t opSeed,
           int64_t opId, double &ms, Counts &counts)
{
    try {
        return w.runOp(entry, opSeed, opId, ms, counts);
    } catch (const std::exception &ex) {
        return std::string("threw: ") + ex.what();
    }
}

} // namespace

double
runColdOps(SingleCallerWorkload &w, const std::vector<size_t> &entries,
           uint64_t seed, Outcome &out)
{
    double totalMs = 0;
    for (size_t i : entries) {
        double ms = 0;
        Counts unused;
        const std::string err = runChecked(w, i, seed, -1, ms, unused);
        ++out.attempted;
        if (!err.empty())
            out.fail(-1, w.catalogue()[i].label, seed, err);
        totalMs += ms;
    }
    return totalMs / 1000.0;
}

Outcome
runSingleCaller(SingleCallerWorkload &w, const RunConfig &cfg)
{
    Outcome out;
    std::vector<double> setupS;
    for (int i = 0; i < kSetups; ++i)
        setupS.push_back(timeFreshSetUp(cfg, i, out));
    // This process's own set-up, untimed: the fresh processes above
    // measured it.
    w.setUp(setUpSeed(cfg.seed, 0), out);

    const std::vector<Entry> &cat = w.catalogue();
    int64_t opIndex = 0;
    // Whole rounds until the phase's time is used up.
    auto runPhase = [&](double seconds) {
        Phase ph;
        const Clock::time_point t0 = Clock::now();
        do {
            for (size_t p = 0; p < cat.size(); ++p, ++opIndex) {
                const size_t e = entryOf(cfg.seed, opIndex, cat.size());
                // Per-op counters: the log starts empty for every op
                // and is read after it, so the deltas cover exactly
                // the measured ops and the log never grows.
                events::global().clear();
                moveToCpu(opIndex);
                double ms = 0;
                const std::string err = runChecked(
                    w, e, mix(cfg.seed, opIndex), opIndex, ms, ph.counts);
                for (const char *name : kEventCounters)
                    ph.counts[name] += static_cast<double>(
                        events::global().value(name));
                ++out.attempted;
                if (!err.empty())
                    out.fail(opIndex, cat[e].label, cfg.seed, err);
                ph.samples.push_back({cat[e].cls, ms});
                ph.opMs += ms;
            }
        } while (msSince(t0) < seconds * 1000.0);
        return ph;
    };

    if (!cfg.traced) {
        const Phase ph = runPhase(cfg.seconds);
        const std::vector<double> lat = ph.latencies();
        out.add("setup_s", percentile(setupS, 0.5), "s");
        out.add("ops_per_s", ph.opsPerSecond(), "1/s");
        out.add("op_p50_ms", middleMean(lat), "ms");
        out.add("op_p90_ms", percentile(lat, 0.90), "ms");
        out.add("op_p99_ms", percentile(lat, 0.99), "ms");
        out.add("peak_rss_mb", peakRssMb(), "MB");
        w.finish();
        return out;
    }

    // Traced run: an untraced half for the per-class latencies and the
    // overhead baseline, then a traced half for the layer accounting.
    const Phase plain = runPhase(cfg.seconds / 2);
    trace::clear();
    trace::setEnabled(true);
    const Phase traced = runPhase(cfg.seconds / 2);
    trace::setEnabled(false);
    out.spans = trace::collect();

    const int64_t ops = static_cast<int64_t>(traced.samples.size());
    addLayerMetrics(out, out.spans, ops, traced.opMs);
    for (const auto &kv : traced.counts)
        out.add(kv.first, kv.second / static_cast<double>(ops), "1/op");
    std::map<std::string, std::vector<double>> byClass;
    for (const OpSample &s : plain.samples)
        byClass[s.cls].push_back(s.ms);
    for (const auto &kv : byClass)
        out.add(cfg.workload + "." + kv.first + "_p50_ms",
                percentile(kv.second, 0.5), "ms");
    const double plainRate = plain.opsPerSecond();
    out.add("trace.overhead_ops_per_s", traced.opsPerSecond() - plainRate,
            "1/s");
    out.add("trace.overhead_pct",
            plainRate > 0
                ? 100.0 * (traced.opsPerSecond() - plainRate) / plainRate
                : 0,
            "%");
    w.finish();
    return out;
}

std::string
opSequence(const SingleCallerWorkload &w, uint64_t seed, int64_t ops)
{
    const std::vector<Entry> &cat = w.catalogue();
    std::string seq;
    for (int64_t i = 0; i < ops; ++i) {
        const size_t e = entryOf(seed, i, cat.size());
        seq += cat[e].label + " " + w.inputTag(e, mix(seed, i)) + "\n";
    }
    return seq;
}

} // namespace hostbench
