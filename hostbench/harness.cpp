#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include <cerrno>

#include <pthread.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace hostbench
{

using graphene::json::Value;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

// ---- tracing ----------------------------------------------------------

namespace
{

std::atomic<bool> gTracing{false};
const Clock::time_point gEpoch = Clock::now();

struct ThreadTrace
{
    std::vector<SpanRecord> spans;
    int32_t top = -1;
    int64_t op = -1;
    int32_t thread = 0;
};

std::mutex gRegistryMu;
std::vector<std::shared_ptr<ThreadTrace>> gRegistry;

ThreadTrace &
local()
{
    thread_local std::shared_ptr<ThreadTrace> tl = [] {
        auto t = std::make_shared<ThreadTrace>();
        t->spans.reserve(1 << 14);
        std::lock_guard<std::mutex> lk(gRegistryMu);
        t->thread = static_cast<int32_t>(gRegistry.size());
        gRegistry.push_back(t);
        return t;
    }();
    return *tl;
}

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(Clock::now()
                                                     - gEpoch)
        .count();
}

int32_t
openSpan(const char *name)
{
    ThreadTrace &t = local();
    SpanRecord r;
    r.name = name;
    r.startUs = nowUs();
    r.parent = t.top;
    r.op = t.op;
    r.thread = t.thread;
    t.spans.push_back(r);
    t.top = static_cast<int32_t>(t.spans.size() - 1);
    return t.top;
}

void
closeSpan(int32_t index)
{
    ThreadTrace &t = local();
    SpanRecord &r = t.spans[static_cast<size_t>(index)];
    r.endUs = nowUs();
    t.top = r.parent;
}

} // namespace

namespace trace
{

void
setEnabled(bool on)
{
    gTracing.store(on);
}

bool
enabled()
{
    return gTracing.load(std::memory_order_relaxed);
}

void
clear()
{
    std::lock_guard<std::mutex> lk(gRegistryMu);
    for (const auto &t : gRegistry) {
        t->spans.clear();
        t->top = -1;
    }
}

std::vector<std::vector<SpanRecord>>
collect()
{
    std::lock_guard<std::mutex> lk(gRegistryMu);
    std::vector<std::vector<SpanRecord>> out;
    for (const auto &t : gRegistry)
        if (!t->spans.empty())
            out.push_back(t->spans);
    return out;
}

void
writeChromeTrace(std::ostream &os,
                 const std::vector<std::vector<SpanRecord>> &threads)
{
    os << "{\"traceEvents\":[";
    const char *sep = "";
    char buf[320];
    for (const auto &spans : threads)
        for (const SpanRecord &r : spans) {
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"cat\":\"hostbench\","
                          "\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                          "\"parent\":%d}}",
                          sep, r.name, r.thread, r.startUs,
                          r.endUs - r.startUs, (long long)r.op, r.parent);
            os << buf;
            sep = ",";
        }
    os << "],\"displayTimeUnit\":\"ns\","
          "\"otherData\":{\"schema\":\"hostbench.trace.v1\"}}\n";
}

} // namespace trace

Span::Span(const char *name)
{
    if (trace::enabled())
        index_ = openSpan(name);
}

Span::~Span()
{
    if (index_ >= 0)
        closeSpan(index_);
}

OpWindow::OpWindow(int64_t opId)
{
    if (trace::enabled()) {
        ThreadTrace &t = local();
        prevOp_ = t.op;
        t.op = opId;
        index_ = openSpan("op");
    }
    t0_ = Clock::now();
}

OpWindow::~OpWindow()
{
    close();
}

double
OpWindow::close()
{
    if (!open_)
        return ms_;
    ms_ = msSince(t0_);
    open_ = false;
    if (index_ >= 0) {
        closeSpan(index_);
        local().op = prevOp_;
    }
    return ms_;
}

namespace
{

/** Per-layer self time (ms) summed over @p threads' spans: a span's
 *  duration minus its children's.  The op spans' own remainder is
 *  under the key "op". */
std::map<std::string, double>
selfTimeMs(const std::vector<std::vector<SpanRecord>> &threads)
{
    std::map<std::string, double> self;
    for (const auto &spans : threads) {
        std::vector<double> childUs(spans.size(), 0.0);
        for (const SpanRecord &r : spans)
            if (r.parent >= 0)
                childUs[static_cast<size_t>(r.parent)] +=
                    r.endUs - r.startUs;
        for (size_t i = 0; i < spans.size(); ++i)
            self[spans[i].name] +=
                (spans[i].endUs - spans[i].startUs - childUs[i]) / 1000.0;
    }
    return self;
}

} // namespace

// ---- seeds and ordering ------------------------------------------------

uint64_t
mix(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

size_t
entryOf(uint64_t seed, int64_t opIndex, size_t n)
{
    const uint64_t round = static_cast<uint64_t>(opIndex) / n;
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i)
        perm[i] = i;
    // Fisher-Yates driven by the round's own stream.
    for (size_t i = n; i > 1; --i) {
        const uint64_t r = mix(seed ^ 0x5eedull, round * 1000003ull + i);
        std::swap(perm[i - 1], perm[r % i]);
    }
    return perm[static_cast<uint64_t>(opIndex) % n];
}

ExpectedFile::ExpectedFile(std::string path, bool record)
    : path_(std::move(path)), record_(record),
      entries_(Value::object())
{
    if (record_)
        return;
    std::ifstream f(path_);
    if (!f)
        throw std::runtime_error("cannot read expected-results file "
                                 + path_);
    std::stringstream text;
    text << f.rdbuf();
    entries_ = Value::parse(text.str()).at("entries");
}

std::string
ExpectedFile::check(const std::string &label, const Value &got)
{
    if (record_) {
        entries_[label] = got;
        return "";
    }
    if (!entries_.contains(label))
        return "no expected result for '" + label + "' in " + path_;
    const Value &want = entries_.at(label);
    for (const auto &kv : want.fields()) {
        const std::string have =
            got.contains(kv.first) ? got.at(kv.first).dump(0) : "missing";
        if (have != kv.second.dump(0))
            return kv.first + " is " + have + ", expected "
                + kv.second.dump(0);
    }
    return "";
}

void
ExpectedFile::save() const
{
    if (!record_)
        return;
    Value doc = Value::object();
    doc["schema"] = "hostbench.expected.v1";
    doc["entries"] = entries_;
    std::ofstream f(path_);
    if (!f)
        throw std::runtime_error("cannot write " + path_);
    f << doc.dump(2) << "\n";
}

// ---- statistics and output ---------------------------------------------

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = p * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
middleMean(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const size_t lo = static_cast<size_t>(std::floor(0.35 * n));
    const size_t hi =
        std::max(lo + 1, static_cast<size_t>(std::ceil(0.65 * n)));
    double sum = 0;
    for (size_t i = lo; i < hi; ++i)
        sum += values[i];
    return sum / static_cast<double>(hi - lo);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace
{

/** The CPUs this process may run on, as a set and as a list. */
const cpu_set_t &
processCpus()
{
    static const cpu_set_t all = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof set, &set);
        return set;
    }();
    return all;
}

const std::vector<int> &
cpuList()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &processCpus()))
                v.push_back(c);
        return v;
    }();
    return cpus;
}

} // namespace

void
pinThread(pthread_t thread, int64_t turn)
{
    const std::vector<int> &cpus = cpuList();
    if (cpus.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<size_t>(turn) % cpus.size()], &one);
    pthread_setaffinity_np(thread, sizeof one, &one);
}

void
unpinThread(pthread_t thread)
{
    pthread_setaffinity_np(thread, sizeof(cpu_set_t), &processCpus());
}

void
moveToCpu(int64_t turn)
{
    pinThread(pthread_self(), turn);
    unpinThread(pthread_self());
}

uint64_t
setUpSeed(uint64_t seed, int index)
{
    return mix(seed, 1u << 30) + static_cast<uint64_t>(index);
}

double
timeFreshSetUp(const RunConfig &cfg, int index, Outcome &out)
{
    char self[4096];
    const ssize_t len = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (len <= 0)
        throw std::runtime_error("cannot resolve /proc/self/exe");
    self[len] = '\0';
    const uint64_t seed = setUpSeed(cfg.seed, index);
    std::vector<std::string> args = {
        self, "--setup-only", std::to_string(index),
        "--workload", cfg.workload,
        "--seed", std::to_string(seed),
        "--expected-dir", cfg.expectedDir,
        "--workdir", cfg.workDir};
    if (cfg.record)
        args.push_back("--record");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    // The child's standard output is a pipe that carries its report.
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const Clock::time_point spawned = Clock::now();
    const int rc =
        posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        throw std::runtime_error("cannot start a set-up process");
    }
    std::string text;
    char buf[256];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    long long attempted = 0, failed = 0, mainStartNs = 0;
    double programSeconds = 0;
    const std::string label = "set-up " + std::to_string(index);
    if (std::sscanf(text.c_str(), "setup-done %lld %lld %lld %lf",
                    &attempted, &failed, &mainStartNs, &programSeconds)
        != 4) {
        ++out.attempted;
        out.fail(-1, label, seed,
                 "set-up process ended without reporting (wait status "
                     + std::to_string(status) + ")");
        return 0;
    }
    out.attempted += attempted;
    if (failed > 0) {
        out.failed += failed;
        out.failures.push_back(label + " seed " + std::to_string(seed)
                               + ": " + std::to_string(failed)
                               + " failed set-up ops (named above)");
    }
    const double startSeconds =
        static_cast<double>(
            mainStartNs
            - std::chrono::duration_cast<std::chrono::nanoseconds>(
                  spawned.time_since_epoch())
                  .count())
        / 1e9;
    return startSeconds + programSeconds;
}

void
reportSetUpDone(const Outcome &out, Clock::time_point mainStart,
                double programSeconds)
{
    // steady_clock is CLOCK_MONOTONIC, shared by every process.
    std::printf("setup-done %lld %lld %lld %.9f\n", (long long)out.attempted,
                (long long)out.failed,
                (long long)std::chrono::duration_cast<
                    std::chrono::nanoseconds>(mainStart.time_since_epoch())
                    .count(),
                programSeconds);
    std::fflush(stdout);
}

void
Outcome::fail(int64_t opId, const std::string &label, uint64_t seed,
              const std::string &why)
{
    ++failed;
    failures.push_back("op " + std::to_string(opId) + " (" + label
                       + ") seed " + std::to_string(seed) + ": " + why);
}

void
Outcome::add(const std::string &name, double value,
             const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

const std::vector<std::string> &
timedLayers()
{
    static const std::vector<std::string> layers = {
        "ops.build",       "sim.timing",      "ir.print",
        "codegen.emit",    "metrics.compute", "profile.json",
        "graph.parse",     "graph.schedule",  "graph.json",
        "tune.space",      "tune.search",     "runtime.upload",
        "sim.functional",  "sim.sanitized",   "runtime.download",
        "service.call",
    };
    return layers;
}

void
addLayerMetrics(Outcome &out,
                const std::vector<std::vector<SpanRecord>> &spans,
                int64_t ops, double opMsTotal)
{
    const std::map<std::string, double> self = selfTimeMs(spans);
    const double perOp = ops > 0 ? 1.0 / static_cast<double>(ops) : 0;
    auto selfOf = [&](const std::string &name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto share = [&](double ms) {
        return opMsTotal > 0 ? 100.0 * ms / opMsTotal : 0.0;
    };
    for (const std::string &layer : timedLayers()) {
        const double ms = selfOf(layer);
        out.add(layer + "_ms", ms * perOp, "ms");
        out.add(layer + "_share", share(ms), "%");
    }
    out.add("unattributed_ms", selfOf("op") * perOp, "ms");
    out.add("unattributed_share", share(selfOf("op")), "%");
}

} // namespace hostbench
