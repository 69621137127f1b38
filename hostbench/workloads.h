/**
 * @file
 * The four workloads and the closed loop that drives the three
 * single-caller ones.
 *
 * Every workload is a closed loop: each caller sends its next op only
 * after the previous one answered, as every caller of these verbs
 * does.  The loop runs whole rounds, each a seeded permutation of the
 * workload's catalogue, until the measured time is used up, so every
 * run executes each catalogue entry equally often and only the order
 * (and, for `verify`, the data) depends on the seed.
 */

#ifndef HOSTBENCH_WORKLOADS_H
#define HOSTBENCH_WORKLOADS_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace hostbench
{

/** Set-ups per run, each timed in a fresh process (setup_s is their
 *  median). */
constexpr int kSetups = 5;

/** One catalogue entry: a unique label and its class (the unit of the
 *  per-class latency rows). */
struct Entry
{
    std::string label;
    std::string cls;
};

/** Per-op counts a workload reports besides its latency. */
using Counts = std::map<std::string, double>;

/** A workload driven by one closed-loop caller. */
class SingleCallerWorkload
{
  public:
    virtual ~SingleCallerWorkload() = default;

    virtual const std::vector<Entry> &catalogue() const = 0;

    /**
     * One set-up of the program state the ops need, ending with one
     * cold op per architecture.  Returns the seconds spent in calls
     * into the program and records failed cold ops in @p out.
     */
    virtual double setUp(uint64_t seed, Outcome &out) = 0;

    /**
     * Run catalogue entry @p entry: generate its inputs from
     * @p opSeed, call the program inside an OpWindow, then check the
     * outputs.  Sets @p ms to the window's length and returns "" or
     * the reason the output is wrong.
     */
    virtual std::string runOp(size_t entry, uint64_t opSeed,
                              int64_t opId, double &ms,
                              Counts &counts) = 0;

    /** Digest of the inputs op @p opSeed of @p entry would get. */
    virtual std::string inputTag(size_t entry, uint64_t opSeed) const
    {
        (void)entry;
        (void)opSeed;
        return "";
    }

    /** Called once after the run (recording workloads write their
     *  expected-results file here). */
    virtual void finish() {}
};

/** Run catalogue @p entries once each as a set-up's cold ops,
 *  recording failures in @p out; returns their op windows' seconds. */
double runColdOps(SingleCallerWorkload &w,
                  const std::vector<size_t> &entries, uint64_t seed,
                  Outcome &out);

/** Run a single-caller workload: set-ups, then the measured loop;
 *  with cfg.traced, half the time untraced and half traced. */
Outcome runSingleCaller(SingleCallerWorkload &w, const RunConfig &cfg);

/** The op sequence of the first @p ops ops for @p seed, one line per
 *  op (label plus input digest) — what the determinism self-test
 *  compares. */
std::string opSequence(const SingleCallerWorkload &w, uint64_t seed,
                       int64_t ops);

std::unique_ptr<SingleCallerWorkload>
makeCompileWorkload(const std::string &expectedDir, bool record);
std::unique_ptr<SingleCallerWorkload>
makeSearchWorkload(const std::string &expectedDir, bool record,
                   int nproc);
std::unique_ptr<SingleCallerWorkload> makeVerifyWorkload(int nproc);

Outcome runServe(const RunConfig &cfg);
/** `--setup-only` for `serve`: one set-up (a fresh daemon, its
 *  connections and the cold fill), reported with reportSetUpDone
 *  before the daemon stops; failed cold requests go to @p out. */
void setUpServeOnly(const RunConfig &cfg, Clock::time_point mainStart,
                    Outcome &out);

/** Checker self-tests: each runs one op, confirms its checker passes
 *  it, corrupts one value of the output and confirms the checker
 *  rejects it.  Return "" or what went wrong. */
std::string selfTestCompileChecker(const std::string &expectedDir);
std::string selfTestVerifyChecker(int nproc);
std::string selfTestServeChecker(const RunConfig &cfg);

/** The first @p requests warm requests `serve` draws for @p seed (line
 *  indices per client) — the determinism self-test's op sequence. */
std::string serveSequence(uint64_t seed, int64_t requests, int clients);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_H
