/**
 * @file
 * `search`: one caller asks for fusion schedules and tuned configs.
 * The timing simulator is a cost oracle called many times per answer
 * here, so oracle caching and search-space pruning show on this
 * workload.  A schedule op parses a graphene.graph.v1 document,
 * schedules it and serializes the schedule; a tune op builds the
 * op's tunable space and searches it with a fixed budget.
 */

#include <functional>

#include "graph/graph.h"
#include "graph/scheduler.h"
#include "tune/space.h"
#include "tune/tuner.h"
#include "workloads.h"

namespace hostbench
{

using namespace graphene;

namespace
{

/** Timed simulations per tune op. */
constexpr int kTuneBudget = 8;

struct SearchEntry
{
    Entry entry;
    const GpuArch *arch = nullptr;
    /** Schedule ops: the graphene.graph.v1 document text. */
    std::string graphText;
    /** Tune ops: op name and shape. */
    std::string tuneOp;
    tune::ProblemShape shape;
};

/*
 * The catalogue.  Scheduling costs ~0.25 s per MLP layer on Ampere and
 * twice that on Volta, so shapes are small and the expensive classes
 * run on one architecture each: a round takes 2-3 s, so a 20 s run
 * holds several rounds.  Entries are 13, and the seventh cheapest
 * (random_graph/volta/seed1, ~0.26 s) sits just below four entries of
 * ~0.3 s, so the median op falls at a cluster of costs rather than in
 * a gap between two entries.
 * - mlp_graph (Ampere, 2 layers): a chain of identical
 *   MatMul+bias+relu nodes, so the scheduler asks the oracle the same
 *   question many times — where an oracle cache pays.
 * - fig15_graph (Ampere, one 4-head, 128-token encoder layer): the
 *   Fig. 15 attention fusion plus library fallbacks.
 * - random_graph (fixed seeds 1, 3 and 8, both architectures):
 *   irregular DAGs whose candidates rarely repeat — where an oracle
 *   cache does not pay.
 * - tune_tc_gemm (Ampere): 336 candidates, about half pruned by the
 *   static lint, and the only space the budget cuts — where space
 *   pruning pays.
 * - tune_layernorm (both): a tiny space — where pruning has nothing
 *   to remove.
 * - tune_fmha (Ampere), tune_mlp (Volta, 2 layers): fused-kernel
 *   spaces with expensive oracle calls per candidate.
 */
std::vector<SearchEntry>
buildCatalogue()
{
    std::vector<SearchEntry> cat;
    auto archTag = [](const GpuArch &arch) {
        return std::string(arch.hasLdmatrix ? "ampere" : "volta");
    };
    auto schedule = [&](const GpuArch &arch, const std::string &cls,
                        const std::string &tag, const graph::Graph &g) {
        SearchEntry e;
        e.entry = {cls + "/" + archTag(arch) + "/" + tag, cls};
        e.arch = &arch;
        e.graphText = g.toJson().dump(0);
        cat.push_back(std::move(e));
    };
    auto tuneEntry = [&](const GpuArch &arch, const std::string &op,
                         tune::ProblemShape s) {
        SearchEntry e;
        std::string cls = "tune_" + op;
        for (char &c : cls)
            if (c == '-')
                c = '_';
        e.entry = {cls + "/" + archTag(arch), cls};
        e.arch = &arch;
        e.tuneOp = op;
        e.shape = s;
        cat.push_back(std::move(e));
    };
    const GpuArch &ampere = GpuArch::ampere();
    const GpuArch &volta = GpuArch::volta();
    schedule(ampere, "mlp_graph", "layers2", graph::mlpGraph(512, 128, 2));
    schedule(ampere, "fig15_graph", "b1h4s128",
             graph::fig15Graph(1, 4, 128, 256));
    for (const GpuArch *arch : {&ampere, &volta})
        for (uint64_t seed : {1, 3, 8})
            schedule(*arch, "random_graph", "seed" + std::to_string(seed),
                     graph::randomGraph(seed));
    tuneEntry(ampere, "tc-gemm", {1024, 1024, 1024, 0});
    tuneEntry(ampere, "layernorm", {1024, 1024, 0, 0});
    tuneEntry(volta, "layernorm", {1024, 1024, 0, 0});
    tuneEntry(ampere, "fmha", {0, 0, 0, 0});
    tuneEntry(volta, "mlp", {512, 0, 0, 2});
    return cat;
}

class SearchWorkload final : public SingleCallerWorkload
{
  public:
    SearchWorkload(const std::string &expectedDir, bool record, int nproc)
        : cat_(buildCatalogue()),
          expected_(expectedDir + "/search.json", record), nproc_(nproc)
    {
        for (const SearchEntry &e : cat_)
            entries_.push_back(e.entry);
    }

    const std::vector<Entry> &catalogue() const override
    {
        return entries_;
    }

    double setUp(uint64_t seed, Outcome &out) override
    {
        // Nothing outlives an op; set-up is the first (cold) answer on
        // each architecture: scheduling random graph 1.
        std::vector<size_t> cold;
        for (size_t i = 0; i < cat_.size(); ++i)
            if (cat_[i].entry.label.find("random_graph/") == 0
                && cat_[i].entry.label.find("/seed1") != std::string::npos)
                cold.push_back(i);
        return runColdOps(*this, cold, seed, out);
    }

    std::string runOp(size_t entry, uint64_t, int64_t opId, double &ms,
                      Counts &) override
    {
        const SearchEntry &e = cat_[entry];
        return e.tuneOp.empty() ? scheduleOp(e, opId, ms)
                                : tuneOp(e, opId, ms);
    }

    void finish() override { expected_.save(); }

  private:
    std::string scheduleOp(const SearchEntry &e, int64_t opId, double &ms)
    {
        OpWindow window(opId);
        graph::Graph g;
        {
            Span s("graph.parse");
            g = graph::Graph::fromJson(json::Value::parse(e.graphText));
        }
        graph::Schedule sched;
        {
            Span s("graph.schedule");
            sched = graph::scheduleGraph(g, *e.arch);
        }
        std::string text;
        {
            Span s("graph.json");
            text = graph::scheduleToJson(g, sched).dump(0);
        }
        ms = window.close();

        if (!(sched.scheduledUs <= sched.unfusedUs))
            return "scheduled_us " + std::to_string(sched.scheduledUs)
                + " exceeds unfused_us "
                + std::to_string(sched.unfusedUs);
        json::Value v = json::Value::object();
        v["scheduled_us"] = sched.scheduledUs;
        v["unfused_us"] = sched.unfusedUs;
        v["scheduled_kernels"] = sched.scheduledKernels;
        v["schedule_fnv1a"] = tune::fnv1aHex(text);
        return expected_.check(e.entry.label, v);
    }

    std::string tuneOp(const SearchEntry &e, int64_t opId, double &ms)
    {
        OpWindow window(opId);
        tune::TunableSpace space;
        {
            Span s("tune.space");
            space = tune::buildTunableSpace(e.tuneOp, *e.arch, e.shape);
        }
        tune::TuneOptions opts;
        opts.budget = kTuneBudget;
        opts.threads = nproc_;
        tune::TuneResult res;
        {
            Span s("tune.search");
            res = tune::runTune(space, *e.arch, opts);
        }
        ms = window.close();

        if (!(res.best.simUs <= res.defaultResult.simUs))
            return "best sim_us " + std::to_string(res.best.simUs)
                + " exceeds the default's "
                + std::to_string(res.defaultResult.simUs);
        json::Value v = json::Value::object();
        v["best_params"] = tune::paramsToJson(res.best.params);
        v["best_sim_us"] = res.best.simUs;
        v["space"] = res.spaceSize;
        v["evaluated"] = res.evaluated;
        return expected_.check(e.entry.label, v);
    }

    std::vector<SearchEntry> cat_;
    std::vector<Entry> entries_;
    ExpectedFile expected_;
    int nproc_;
};

} // namespace

std::unique_ptr<SingleCallerWorkload>
makeSearchWorkload(const std::string &expectedDir, bool record, int nproc)
{
    return std::make_unique<SearchWorkload>(expectedDir, record, nproc);
}

} // namespace hostbench
