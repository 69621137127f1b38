/**
 * @file
 * Shared machinery of the host-time benchmark: op timers, in-memory
 * span tracing, seeded op ordering, statistics and metric output.
 *
 * Timing windows.  An op timer brackets only the calls into the
 * program; input generation, reference computation, response parsing
 * and output checks run before the window opens or after it closes.
 * Set-up is timed the same way, call by call.
 *
 * Tracing.  When enabled, every Span records name, start, end, parent
 * span and op id into a per-thread buffer; nothing is written until
 * the run ends.  When disabled, a Span is a branch on one flag and
 * reads no clock.
 */

#ifndef HOSTBENCH_HARNESS_H
#define HOSTBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include <pthread.h>

#include "support/json.h"

namespace hostbench
{

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0);

// ---- tracing ----------------------------------------------------------

struct SpanRecord
{
    const char *name = "";
    double startUs = 0;
    double endUs = 0;
    int32_t parent = -1; // index into the same thread's records
    int64_t op = -1;
    int32_t thread = 0;
};

namespace trace
{
/** Turn span recording on or off (only while no op is running). */
void setEnabled(bool on);
bool enabled();
/** Drop every recorded span on every thread. */
void clear();
/** Every thread's records, thread by thread. */
std::vector<std::vector<SpanRecord>> collect();
/** Write the spans as a Chrome trace-event document (the format
 *  `graphene-cli trace` writes: "X" events, ts/dur in microseconds),
 *  streamed so a long run needs no document tree. */
void writeChromeTrace(std::ostream &os,
                      const std::vector<std::vector<SpanRecord>> &threads);
} // namespace trace

/** A traced span around one call into a layer. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int32_t index_ = -1;
};

/**
 * The timing window of one op: opens at construction, closes at
 * close().  While traced it is also the op's root span ("op"), the
 * parent of every layer span inside it.
 */
class OpWindow
{
  public:
    explicit OpWindow(int64_t opId);
    ~OpWindow();
    OpWindow(const OpWindow &) = delete;
    OpWindow &operator=(const OpWindow &) = delete;
    /** Close the window; returns its length in milliseconds. */
    double close();

  private:
    Clock::time_point t0_;
    int32_t index_ = -1;
    int64_t prevOp_ = -1;
    bool open_ = true;
    double ms_ = 0;
};

// ---- seeds and ordering ------------------------------------------------

/** splitmix64 finaliser: independent streams from (seed, index). */
uint64_t mix(uint64_t seed, uint64_t index);

/** Catalogue index of op @p opIndex: op i is position i % n of round
 *  i / n, and each round is a seeded permutation of the catalogue, so
 *  every whole round runs each entry exactly once. */
size_t entryOf(uint64_t seed, int64_t opIndex, size_t n);

// ---- statistics and output ---------------------------------------------

/**
 * An expected-results file: one JSON object per catalogue label,
 * recorded from a known-good build and compared field by field.
 */
class ExpectedFile
{
  public:
    /** Load @p path, or start empty when @p record is set. */
    ExpectedFile(std::string path, bool record);
    /** "" when @p got equals the recorded object for @p label (always
     *  "" while recording, which stores it instead). */
    std::string check(const std::string &label,
                      const graphene::json::Value &got);
    /** Write the recorded objects; a no-op unless recording. */
    void save() const;

  private:
    std::string path_;
    bool record_;
    graphene::json::Value entries_;
};

/** Linear-interpolated percentile, @p p in [0, 1]; 0 when empty. */
double percentile(std::vector<double> values, double p);

/**
 * The middle of a distribution: the mean of the values ranked from the
 * 35th to the 65th percentile; 0 when empty.  Where values cluster by
 * catalogue entry with gaps between the clusters, the sample median
 * jumps between neighbouring entries' costs from run to run; this
 * averages the entries around it instead.
 */
double middleMean(std::vector<double> values);

/** Peak resident set size of this process in MB. */
double peakRssMb();

/**
 * Move the calling thread to the next CPU of its affinity set (turn
 * @p turn), then restore the whole set, so threads it starts are not
 * confined.  A single caller that moves every op samples every CPU
 * equally: on a VM whose vCPUs drift in speed independently, one run
 * then measures their average rather than whichever vCPU the
 * scheduler kept it on.
 */
void moveToCpu(int64_t turn);

/** Confine @p thread to the CPU of turn @p turn (the turn-th CPU of
 *  the process's affinity set, wrapping around). */
void pinThread(pthread_t thread, int64_t turn);
/** Let @p thread run on every CPU of the process's affinity set. */
void unpinThread(pthread_t thread);

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run of a workload reports. */
struct Outcome
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** One line per failed op: op id, catalogue label, seed, reason. */
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /** Spans of the traced region, written out at exit. */
    std::vector<std::vector<SpanRecord>> spans;

    void fail(int64_t opId, const std::string &label, uint64_t seed,
              const std::string &why);
    void add(const std::string &name, double value,
             const std::string &unit);
};

/** How a run is configured; every thread count is explicit. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    /** Hardware threads; the load and every thread pool are sized by
     *  it. */
    int nproc = 1;
    /** Directory for the daemon socket (under the build directory). */
    std::string workDir = ".";
    std::string expectedDir = "hostbench/expected";
    /** Record the expected-results file instead of checking it. */
    bool record = false;
};

/** Seed of set-up @p index of a run with seed @p seed. */
uint64_t setUpSeed(uint64_t seed, int index);

/**
 * Time set-up @p index in a fresh process: start this program again as
 * `--setup-only INDEX` for the same workload.  Its set-up time is the
 * time from starting the process to its main() (process creation,
 * loading, static initialisation) plus the time the child then spends
 * in calls into the program: building program state (devices, kernels,
 * a daemon and its connections) and the first (cold) op on each
 * architecture.  Input generation, loading expected results and output
 * checks are left out, as in op timers.  Every sample starts cold:
 * nothing is warmed by an earlier set-up.  Adds the child's set-up ops
 * and failures to @p out; returns seconds.
 */
double timeFreshSetUp(const RunConfig &cfg, int index, Outcome &out);

/** The line a `--setup-only` process prints when its set-up is done:
 *  its ops and failures, when its main() started, and the seconds it
 *  spent in calls into the program. */
void reportSetUpDone(const Outcome &out, Clock::time_point mainStart,
                     double programSeconds);

/**
 * Layer accounting of a traced region: per-layer self time (mean per
 * op and share of op time), per-op means of counters, and the
 * unattributed remainder of op time.
 */
void addLayerMetrics(Outcome &out,
                     const std::vector<std::vector<SpanRecord>> &spans,
                     int64_t ops, double opMsTotal);

/** The fixed list of timed layers, in output order. */
const std::vector<std::string> &timedLayers();

} // namespace hostbench

#endif // HOSTBENCH_HARNESS_H
