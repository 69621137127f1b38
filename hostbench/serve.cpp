/**
 * @file
 * `serve`: nproc client connections talk to an in-process SocketServer
 * over a CompileService.  Set-up sends every request of a fixed
 * universe once, cold; the measured region draws warm requests from
 * that universe with skewed popularity.  The memo, the response
 * envelope and the socket transport do nearly all the work here, and
 * the simulator none.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include <unistd.h>

#include "graph/graph.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "support/rng.h"
#include "workloads.h"

namespace hostbench
{

using namespace graphene;

namespace
{

struct Line
{
    std::string text; // one graphene.request.v1 wire line
    std::string cls;  // full | filtered | schedule | stats
};

/*
 * The request classes and their shares of warm traffic.  The shares
 * are assumed, not measured: no recorded daemon traffic exists to take
 * them from.  Runs print the share each class actually got.
 * - full: compile responses with every artifact, 19 KB (layernorm) to
 *   511 KB (mlp) — warm latency that grows with payload size.
 * - filtered: `timing`, `ir` or `cuda` only; a hit re-parses the whole
 *   memoized payload, so a 471 B fmha timing answer costs more than
 *   the full 420 KB one.
 * - schedule: inline-graph requests; the largest request lines.
 * - stats: the daemon's counters; never memoized.
 */
const std::vector<std::pair<std::string, double>> kClassShares = {
    {"full", 0.50},
    {"filtered", 0.30},
    {"schedule", 0.15},
    {"stats", 0.05},
};

/** One compile key: op and shape. */
struct Variant
{
    std::string op;
    int64_t m = 0, n = 0, k = 0, layers = 0;
    std::string epilogue = "none";
    bool swizzle = true;
};

/*
 * The universe.  Within a class, keys are ranked by one fixed rule:
 * the variants in the order listed below (ops in the compile
 * catalogue's order, smaller shapes first), each on Ampere and then on
 * Volta.  Every filtered key asks for one artifact of a full key, so
 * the cold fill compiles each kernel once.
 */
std::vector<Line>
buildUniverse()
{
    const std::vector<Variant> full = {
        {"gemm", 1024, 1024, 1024, 0, "none", true},
        {"gemm", 1024, 1024, 1024, 0, "bias+relu", true},
        {"gemm", 2048, 1024, 512, 0, "none", false},
        {"simple-gemm", 256, 256, 256, 0, "none", true},
        {"layernorm", 256, 1024, 0, 0, "none", true},
        {"layernorm", 1024, 4096, 0, 0, "none", true},
        {"mlp", 512, 0, 0, 2, "none", true},
        {"mlp", 512, 0, 0, 4, "none", true},
        {"lstm", 256, 256, 128, 0, "none", true},
        {"fmha", 0, 0, 0, 0, "none", true},
    };
    const std::vector<std::pair<Variant, std::string>> filtered = {
        {full[0], "ir"},     {full[4], "cuda"},  {full[7], "timing"},
        {full[8], "timing"}, {full[9], "timing"},
    };
    const std::vector<graph::Graph> graphs = {
        graph::randomGraph(1), graph::randomGraph(3), graph::randomGraph(8)};

    std::vector<Line> u;
    auto add = [&](service::Request r, const std::string &cls) {
        r.id = "r" + std::to_string(u.size());
        u.push_back({r.toJson().dump(0), cls});
    };
    auto compile = [](const Variant &v, const std::string &arch) {
        service::Request r;
        r.verb = "compile";
        r.op = v.op;
        r.arch = arch;
        r.m = v.m;
        r.n = v.n;
        r.k = v.k;
        r.layers = v.layers;
        r.epilogue = v.epilogue;
        r.swizzle = v.swizzle;
        return r;
    };
    const char *const arches[] = {"ampere", "volta"};
    for (const Variant &v : full)
        for (const char *arch : arches)
            add(compile(v, arch), "full");
    for (const auto &[v, artifact] : filtered)
        for (const char *arch : arches) {
            service::Request r = compile(v, arch);
            r.artifacts = {artifact};
            add(r, "filtered");
        }
    for (const graph::Graph &g : graphs)
        for (const char *arch : arches) {
            service::Request r;
            r.verb = "schedule";
            r.arch = arch;
            r.graph = g.toJson();
            add(r, "schedule");
        }
    service::Request stats;
    stats.verb = "stats";
    add(stats, "stats");
    return u;
}

/** Cumulative weights, normalised to end at 1. */
std::vector<double>
cumulative(const std::vector<double> &weights)
{
    std::vector<double> cdf(weights.size());
    double sum = 0;
    for (size_t i = 0; i < weights.size(); ++i)
        cdf[i] = sum += weights[i];
    for (double &c : cdf)
        c /= sum;
    return cdf;
}

/** Index of the first cumulative weight above @p u. */
size_t
pick(const std::vector<double> &cdf, double u)
{
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return std::min(static_cast<size_t>(it - cdf.begin()), cdf.size() - 1);
}

/** Warm-request popularity: a class by its share, then a key of that
 *  class by Zipf rank (weight 1 / (rank + 1)). */
class Traffic
{
  public:
    explicit Traffic(const std::vector<Line> &universe)
    {
        std::vector<double> shares;
        for (const auto &[cls, share] : kClassShares) {
            shares.push_back(share);
            std::vector<size_t> lines;
            std::vector<double> zipf;
            for (size_t i = 0; i < universe.size(); ++i)
                if (universe[i].cls == cls) {
                    lines.push_back(i);
                    zipf.push_back(1.0 / static_cast<double>(lines.size()));
                }
            lines_.push_back(std::move(lines));
            rankCdf_.push_back(cumulative(zipf));
        }
        classCdf_ = cumulative(shares);
    }

    /** The universe line of the next request, from two draws of @p rng. */
    size_t next(Rng &rng) const
    {
        const size_t c = pick(classCdf_, rng.uniform());
        return lines_[c][pick(rankCdf_[c], rng.uniform())];
    }

  private:
    std::vector<double> classCdf_;
    std::vector<std::vector<size_t>> lines_;
    std::vector<std::vector<double>> rankCdf_;
};

/** The warm request stream of client @p client. */
class Draw
{
  public:
    Draw(uint64_t seed, int client, const Traffic &traffic)
        : rng_(mix(seed, 0x5e7e0000ull + static_cast<uint64_t>(client))),
          traffic_(traffic)
    {}
    size_t next() { return traffic_.next(rng_); }

  private:
    Rng rng_;
    const Traffic &traffic_;
};

/** The `result` payload of a response line, as bytes ("" if none). */
std::string_view
payloadOf(const std::string &response)
{
    const size_t at = response.find("\"result\":");
    return at == std::string::npos ? std::string_view()
                                   : std::string_view(response).substr(at);
}

bool
okResponse(const std::string &response)
{
    return response.find("\"ok\":true") != std::string::npos;
}

/** "" when the warm @p response is ok and, for memoized classes,
 *  carries exactly the cold payload @p golden. */
std::string
checkResponse(const std::string &response, const Line &line,
              const std::string &golden)
{
    if (!okResponse(response))
        return "response not ok: " + response.substr(0, 300);
    if (line.cls == "stats")
        return "";
    if (payloadOf(response) != golden)
        return "result payload differs from the cold response ("
            + std::to_string(payloadOf(response).size()) + " vs "
            + std::to_string(golden.size()) + " bytes)";
    return "";
}

/** One daemon: the service, its socket server and the clients. */
struct Daemon
{
    std::unique_ptr<service::CompileService> svc;
    std::unique_ptr<service::SocketServer> server;
    std::thread serveThread;
    std::vector<std::unique_ptr<service::ServiceClient>> clients;

    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    ~Daemon()
    {
        for (auto &c : clients)
            c->close();
        if (server)
            server->stop();
        if (serveThread.joinable())
            serveThread.join();
    }
};

struct ColdFill
{
    std::unique_ptr<Daemon> daemon;
    /** Seconds from starting the daemon to the last cold response. */
    double seconds = 0;
    std::vector<double> missMs;
    std::vector<std::string> responses; // per universe line
};

/** Start a daemon, connect the clients, and send every line once. */
ColdFill
setUpDaemon(const std::vector<Line> &universe, const RunConfig &cfg,
            int index)
{
    ColdFill fill;
    fill.daemon = std::make_unique<Daemon>();
    Daemon &d = *fill.daemon;
    const std::string socket = cfg.workDir + "/hostbench-"
        + std::to_string(static_cast<long long>(::getpid())) + "-"
        + std::to_string(index) + ".sock";
    std::vector<double> callMs(universe.size(), 0.0);
    fill.responses.resize(universe.size());

    const Clock::time_point t0 = Clock::now();
    service::ServiceOptions opts;
    opts.requestThreads = 1;
    d.svc = std::make_unique<service::CompileService>(opts);
    d.server = std::make_unique<service::SocketServer>(*d.svc, socket);
    d.server->listen();
    d.serveThread = std::thread([&d] { d.server->serve(); });
    // Client c and the handler thread of its connection share CPU c, so
    // a round trip hands the CPU from one to the other instead of waking
    // a thread on another (possibly idle) vCPU.  The server starts each
    // handler from its accept loop, and a thread starts on its creator's
    // CPUs: the loop sits on CPU c while client c connects, and a ping
    // answered proves the handler exists before the loop moves on.
    service::Request ping;
    ping.verb = "ping";
    const std::string pingLine = ping.toJson().dump(0);
    for (int c = 0; c < cfg.nproc; ++c) {
        pinThread(d.serveThread.native_handle(), c);
        d.clients.push_back(std::make_unique<service::ServiceClient>());
        if (!d.clients.back()->connectWithRetry(socket, 10000))
            throw std::runtime_error("cannot connect to " + socket);
        if (!okResponse(d.clients.back()->callLine(pingLine)))
            throw std::runtime_error("no answer to a ping on " + socket);
    }
    unpinThread(d.serveThread.native_handle());
    std::vector<std::thread> threads;
    for (int c = 0; c < cfg.nproc; ++c)
        threads.emplace_back([&, c] {
            pinThread(pthread_self(), c);
            for (size_t i = static_cast<size_t>(c); i < universe.size();
                 i += static_cast<size_t>(cfg.nproc)) {
                const Clock::time_point s = Clock::now();
                try {
                    fill.responses[i] =
                        d.clients[static_cast<size_t>(c)]->callLine(
                            universe[i].text);
                } catch (const std::exception &e) {
                    // Not an ok response, so the caller records it.
                    fill.responses[i] = std::string("threw: ") + e.what();
                }
                callMs[i] = msSince(s);
            }
        });
    for (std::thread &t : threads)
        t.join();
    fill.seconds = msSince(t0) / 1000.0;

    for (size_t i = 0; i < universe.size(); ++i)
        if (fill.responses[i].find("\"cached\":false") != std::string::npos)
            fill.missMs.push_back(callMs[i]);
    return fill;
}

struct Sample
{
    uint32_t line = 0;
    float ms = 0;
    uint32_t bytes = 0;
    float doneMs = 0; // completion time since the phase started
};

struct WarmPhase
{
    std::vector<std::vector<Sample>> perClient;
    double wallMs = 0;
    int64_t requests() const
    {
        int64_t n = 0;
        for (const auto &c : perClient)
            n += static_cast<int64_t>(c.size());
        return n;
    }
};

/** The closed loop: every client sends its next request as soon as
 *  the previous one answered, until @p seconds have passed. */
WarmPhase
runWarm(Daemon &d, const std::vector<Line> &universe,
        const std::vector<std::string> &golden, const Traffic &traffic,
        const RunConfig &cfg, double seconds, int64_t &nextOp,
        Outcome &out)
{
    WarmPhase ph;
    ph.perClient.resize(static_cast<size_t>(cfg.nproc));
    std::vector<Outcome> failures(static_cast<size_t>(cfg.nproc));
    const int64_t firstOp = nextOp;
    std::atomic<int64_t> ops{0};
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    std::vector<std::thread> threads;
    for (int c = 0; c < cfg.nproc; ++c)
        threads.emplace_back([&, c] {
            Draw draw(cfg.seed + static_cast<uint64_t>(firstOp), c,
                      traffic);
            service::ServiceClient &client =
                *d.clients[static_cast<size_t>(c)];
            std::vector<Sample> &samples =
                ph.perClient[static_cast<size_t>(c)];
            Outcome &fails = failures[static_cast<size_t>(c)];
            pinThread(pthread_self(), c);
            for (int64_t i = 0; Clock::now() < end; ++i) {
                const size_t li = draw.next();
                const int64_t opId = firstOp
                    + i * static_cast<int64_t>(cfg.nproc) + c;
                std::string resp;
                double ms = 0;
                std::string err;
                try {
                    OpWindow window(opId);
                    {
                        Span s("service.call");
                        resp = client.callLine(universe[li].text);
                    }
                    ms = window.close();
                    err = checkResponse(resp, universe[li], golden[li]);
                } catch (const std::exception &e) {
                    err = std::string("threw: ") + e.what();
                }
                ++fails.attempted;
                if (!err.empty())
                    fails.fail(opId, universe[li].cls + " line "
                                         + std::to_string(li),
                               cfg.seed, err);
                samples.push_back({static_cast<uint32_t>(li),
                                   static_cast<float>(ms),
                                   static_cast<uint32_t>(resp.size()),
                                   static_cast<float>(msSince(t0))});
                ops.fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (std::thread &t : threads)
        t.join();
    ph.wallMs = msSince(t0);
    nextOp = firstOp + ops.load() * cfg.nproc + cfg.nproc;
    for (const Outcome &f : failures) {
        out.attempted += f.attempted;
        out.failed += f.failed;
        out.failures.insert(out.failures.end(), f.failures.begin(),
                            f.failures.end());
    }
    return ph;
}

/**
 * Percentile @p p of each whole second of the phase, and their median.
 * A stall of a fraction of a second then moves one window instead of
 * the whole run's tail; each window still holds thousands of requests.
 */
double
windowedPercentile(const WarmPhase &ph, double p)
{
    std::vector<std::vector<double>> windows(
        static_cast<size_t>(ph.wallMs / 1000.0));
    for (const auto &c : ph.perClient)
        for (const Sample &s : c) {
            const size_t w = static_cast<size_t>(s.doneMs / 1000.0);
            if (w < windows.size())
                windows[w].push_back(s.ms);
        }
    std::vector<double> perWindow;
    for (const std::vector<double> &w : windows)
        if (!w.empty())
            perWindow.push_back(percentile(w, p));
    return percentile(perWindow, 0.5);
}

/** Requests completed in each whole second of the phase, and their
 *  median: the rate of a typical second, which a stall of a fraction of
 *  a second cannot move. */
double
windowedRate(const WarmPhase &ph)
{
    std::vector<double> perWindow(static_cast<size_t>(ph.wallMs / 1000.0));
    for (const auto &c : ph.perClient)
        for (const Sample &s : c) {
            const size_t w = static_cast<size_t>(s.doneMs / 1000.0);
            if (w < perWindow.size())
                perWindow[w] += 1;
        }
    return percentile(perWindow, 0.5);
}

std::vector<double>
latencies(const WarmPhase &ph)
{
    std::vector<double> v;
    for (const auto &c : ph.perClient)
        for (const Sample &s : c)
            v.push_back(s.ms);
    return v;
}

int64_t
memoEntries(const service::ServiceStats &st)
{
    int64_t n = 0;
    for (int64_t e : st.shardEntries)
        n += e;
    return n;
}

/** Replay a sample of the traced region's requests in-process through
 *  CompileService::handleLine and split call time into handling and
 *  transport, per request class. */
void
addServiceLayers(Outcome &out, service::CompileService &svc,
                 const std::vector<Line> &universe, const WarmPhase &ph)
{
    constexpr size_t kPerClass = 200;
    std::map<std::string, std::vector<const Sample *>> byClass;
    for (size_t i = 0;; ++i) {
        bool any = false;
        for (const auto &c : ph.perClient)
            if (i < c.size()) {
                any = true;
                auto &v = byClass[universe[c[i].line].cls];
                if (v.size() < kPerClass)
                    v.push_back(&c[i]);
            }
        if (!any)
            break;
    }
    double transportMs = 0;
    int64_t transportN = 0;
    for (const char *cls : {"full", "filtered", "schedule", "stats"}) {
        double callMs = 0, handleMs = 0;
        const auto &samples = byClass[cls];
        for (const Sample *s : samples) {
            const Clock::time_point t0 = Clock::now();
            const std::string resp = svc.handleLine(universe[s->line].text);
            handleMs += msSince(t0);
            callMs += s->ms;
        }
        const double n = std::max<double>(1, samples.size());
        if (std::string(cls) != "stats")
            out.add(std::string("service.handle_") + cls + "_ms",
                    handleMs / n, "ms");
        out.add(std::string("service.transport_") + cls + "_ms",
                (callMs - handleMs) / n, "ms");
        transportMs += callMs - handleMs;
        transportN += static_cast<int64_t>(samples.size());
    }
    out.add("service.transport_ms",
            transportN ? transportMs / static_cast<double>(transportN) : 0,
            "ms");
}

/** Record a cold fill's requests in @p out, failing those not ok. */
void
checkColdFill(const std::vector<Line> &universe, const ColdFill &fill,
              uint64_t seed, Outcome &out)
{
    for (size_t l = 0; l < universe.size(); ++l) {
        ++out.attempted;
        if (!okResponse(fill.responses[l]))
            out.fail(-1, "cold line " + std::to_string(l), seed,
                     fill.responses[l].substr(0, 300));
    }
}

/** The share of @p ph's requests each class got, in percent (not in
 *  the JSON: the class shares are an assumption, printed to show it). */
void
addClassShares(Outcome &out, const std::vector<Line> &universe,
               const WarmPhase &ph)
{
    std::map<std::string, double> count;
    for (const auto &c : ph.perClient)
        for (const Sample &s : c)
            count[universe[s.line].cls] += 1;
    const double n = std::max<double>(1, ph.requests());
    for (const auto &kv : kClassShares)
        out.add("serve." + kv.first + "_share", 100.0 * count[kv.first] / n,
                "%");
}

} // namespace

void
setUpServeOnly(const RunConfig &cfg, Clock::time_point mainStart,
               Outcome &out)
{
    const std::vector<Line> universe = buildUniverse();
    const ColdFill fill = setUpDaemon(universe, cfg, 0);
    checkColdFill(universe, fill, cfg.seed, out);
    reportSetUpDone(out, mainStart, fill.seconds);
}

Outcome
runServe(const RunConfig &cfg)
{
    Outcome out;
    std::vector<double> setupS;
    for (int i = 0; i < kSetups; ++i)
        setupS.push_back(timeFreshSetUp(cfg, i, out));
    // This process's own daemon, untimed: the fresh processes above
    // measured set-up.  Its cold fill gives the miss latencies and the
    // payloads every warm response must repeat.
    const std::vector<Line> universe = buildUniverse();
    const Traffic traffic(universe);
    const ColdFill fill = setUpDaemon(universe, cfg, kSetups);
    checkColdFill(universe, fill, cfg.seed, out);
    const std::vector<double> &coldMs = fill.missMs;
    std::vector<std::string> golden;
    for (const std::string &r : fill.responses)
        golden.emplace_back(payloadOf(r));
    Daemon &d = *fill.daemon;

    int64_t nextOp = 0;
    if (!cfg.traced) {
        const WarmPhase ph = runWarm(d, universe, golden, traffic, cfg,
                                     cfg.seconds, nextOp, out);
        out.add("setup_s", percentile(setupS, 0.5), "s");
        out.add("ops_per_s", windowedRate(ph), "1/s");
        out.add("op_p50_ms", windowedPercentile(ph, 0.50), "ms");
        out.add("op_p90_ms", windowedPercentile(ph, 0.90), "ms");
        out.add("op_p99_ms", windowedPercentile(ph, 0.99), "ms");
        out.add("peak_rss_mb", peakRssMb(), "MB");
        out.add("serve.cold_p50_ms", percentile(coldMs, 0.5), "ms");
        addClassShares(out, universe, ph);
        return out;
    }

    const WarmPhase plain = runWarm(d, universe, golden, traffic, cfg,
                                    cfg.seconds / 2, nextOp, out);
    const service::ServiceStats before = d.svc->stats();
    trace::clear();
    trace::setEnabled(true);
    const WarmPhase traced = runWarm(d, universe, golden, traffic, cfg,
                                     cfg.seconds / 2, nextOp, out);
    trace::setEnabled(false);
    const service::ServiceStats after = d.svc->stats();
    out.spans = trace::collect();

    const std::vector<double> tracedLat = latencies(traced);
    double opMs = 0, bytes = 0;
    for (double ms : tracedLat)
        opMs += ms;
    for (const auto &c : traced.perClient)
        for (const Sample &s : c)
            bytes += s.bytes;
    const int64_t n = traced.requests();
    addLayerMetrics(out, out.spans, n, opMs);
    const double requests = static_cast<double>(after.requests
                                                - before.requests);
    out.add("service.hit_ratio",
            requests > 0
                ? static_cast<double>(after.hits - before.hits) / requests
                : 0,
            "ratio");
    out.add("service.memo_entries",
            static_cast<double>(memoEntries(after)), "count");
    out.add("service.errors",
            static_cast<double>(after.errors - before.errors), "count");
    out.add("service.resp_bytes", n ? bytes / static_cast<double>(n) : 0,
            "B");
    out.add("serve.cold_p50_ms", percentile(coldMs, 0.5), "ms");
    addServiceLayers(out, *d.svc, universe, traced);

    std::map<std::string, std::vector<double>> byClass;
    for (const auto &c : plain.perClient)
        for (const Sample &s : c)
            byClass[universe[s.line].cls].push_back(s.ms);
    for (const auto &kv : byClass)
        out.add("serve." + kv.first + "_p50_ms",
                percentile(kv.second, 0.5), "ms");
    const double plainRate = windowedRate(plain);
    const double tracedRate = windowedRate(traced);
    out.add("trace.overhead_ops_per_s", tracedRate - plainRate, "1/s");
    out.add("trace.overhead_pct",
            plainRate > 0 ? 100.0 * (tracedRate - plainRate) / plainRate : 0,
            "%");
    addClassShares(out, universe, plain);
    return out;
}

std::string
serveSequence(uint64_t seed, int64_t requests, int clients)
{
    const std::vector<Line> universe = buildUniverse();
    const Traffic traffic(universe);
    std::string seq;
    for (int c = 0; c < clients; ++c) {
        Draw draw(seed, c, traffic);
        for (int64_t i = 0; i < requests; ++i)
            seq += std::to_string(draw.next()) + " ";
        seq += "\n";
    }
    return seq;
}

std::string
selfTestServeChecker(const RunConfig &cfg)
{
    const std::vector<Line> universe = buildUniverse();
    RunConfig one = cfg;
    one.nproc = 1;
    ColdFill fill = setUpDaemon(universe, one, 0);
    const size_t li = 0;
    const std::string golden(payloadOf(fill.responses[li]));
    std::string warm = fill.daemon->clients[0]->callLine(universe[li].text);
    if (std::string err = checkResponse(warm, universe[li], golden);
        !err.empty())
        return "serve checker rejected a correct response: " + err;
    // Change one byte inside the payload.
    const size_t at = warm.size() - golden.size() / 2;
    warm[at] = warm[at] == '1' ? '2' : '1';
    if (checkResponse(warm, universe[li], golden).empty())
        return "serve checker accepted a changed payload byte";
    return "";
}

} // namespace hostbench
