/**
 * @file
 * `verify`: one caller uploads real data, launches in Functional mode
 * with simulator threads = nproc, and downloads — the work behind the
 * differential suites.  The plan engine and its block sharding do all
 * the work here and none elsewhere.  Kernels are built in set-up; an
 * op is upload -> launch -> download, and a fixed share of launches
 * runs under the hazard sanitizer in Report mode.
 */

#include <cstring>
#include <functional>

#include "numerics/half.h"
#include "ops/fmha.h"
#include "ops/layernorm.h"
#include "ops/lstm.h"
#include "ops/mlp.h"
#include "ops/pointwise.h"
#include "ops/simple_gemm.h"
#include "ops/tc_gemm.h"
#include "runtime/device.h"
#include "runtime/reference.h"
#include "support/rng.h"
#include "tune/space.h"
#include "workloads.h"

namespace hostbench
{

using namespace graphene;

namespace
{

using Vec = std::vector<double>;

struct Buffer
{
    std::string name;
    Vec data;
};

/** An op's generated inputs, uploaded in order. */
using Inputs = std::vector<Buffer>;

struct VerifyEntry
{
    Entry entry;
    const GpuArch *arch = nullptr;
    bool sanitized = false;
    std::string outName;
    int64_t outCount = 0;
    std::function<Kernel()> build;
    std::function<Inputs(Rng &)> generate;
    /** "" or why @p got is wrong for @p in. */
    std::function<std::string(const Inputs &, const Vec &got)> check;
};

Vec
randomFp16(Rng &rng, int64_t count, double lo = -1.0, double hi = 1.0)
{
    Vec v(static_cast<size_t>(count));
    for (double &x : v)
        x = roundToPrecision(rng.uniform(lo, hi), RoundTo::Fp16);
    return v;
}

const Vec &
input(const Inputs &in, const std::string &name)
{
    for (const Buffer &b : in)
        if (b.name == name)
            return b.data;
    throw std::runtime_error("no input " + name);
}

std::string
bitExact(const Vec &got, const Vec &want)
{
    if (got.size() != want.size())
        return "output has " + std::to_string(got.size())
            + " elements, reference " + std::to_string(want.size());
    for (size_t i = 0; i < got.size(); ++i)
        if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
            return "element " + std::to_string(i) + " is "
                + std::to_string(got[i]) + ", bit-exact reference "
                + std::to_string(want[i]);
    return "";
}

/** The tolerance check of ops_fused_test: max relative error with an
 *  absolute floor. */
std::string
within(const Vec &got, const Vec &want, double floor, double tol)
{
    if (got.size() != want.size())
        return "output size differs from the reference";
    const double err = ref::maxRelDiff(got, want, floor);
    if (!(err < tol))
        return "max relative error " + std::to_string(err)
            + " exceeds " + std::to_string(tol);
    return "";
}

Vec
slice(const Vec &v, int64_t begin, int64_t count)
{
    return Vec(v.begin() + begin, v.begin() + begin + count);
}

/*
 * The catalogue, the same on both architectures, at shapes small
 * enough for functional runs:
 * - tc_gemm: every epilogue, alpha and loadC, swizzle on/off, partial
 *   tiles, grids of 1 to 4 blocks — the bit-exact fp16 contract.
 * - simple_gemm: a single block (threads cannot help) and a 4-block
 *   grid (they can); with the sanitized fused kernels they form the
 *   slowest tenth, kept close together so op_p90_ms does not jump
 *   between them.
 * - pointwise: unary ops over many small blocks — per-block overhead.
 * - layernorm: one block per row, reductions and shuffles.
 * - mlp, lstm, fmha: fused kernels with the largest per-block work,
 *   checked against fp64 references within ops_fused_test tolerances.
 * Sanitized: one tc_gemm, simple_gemm, pointwise and layernorm entry
 * per architecture and each fused kernel on one architecture.
 */
std::vector<VerifyEntry>
buildCatalogue()
{
    std::vector<VerifyEntry> cat;
    for (const GpuArch *arch : {&GpuArch::ampere(), &GpuArch::volta()}) {
        const std::string at = arch->hasLdmatrix ? "ampere" : "volta";
        const bool ampere = arch->hasLdmatrix;

        auto tcGemm = [&](int64_t m, int64_t n, int64_t k,
                          ops::Epilogue epi, double alpha, bool loadC,
                          bool swizzle, bool sanitized) {
            ops::TcGemmConfig cfg;
            cfg.m = m;
            cfg.n = n;
            cfg.k = k;
            cfg.epilogue = epi;
            cfg.alpha = alpha;
            cfg.loadC = loadC;
            cfg.swizzle = swizzle;
            VerifyEntry e;
            e.entry = {"tc_gemm/" + at + "/" + std::to_string(m) + "x"
                           + std::to_string(n) + "x" + std::to_string(k)
                           + "/" + ops::epilogueName(epi) + "/a"
                           + std::to_string(alpha).substr(0, 3)
                           + (loadC ? "/loadC" : "")
                           + (swizzle ? "/swz" : "/noswz"),
                       "tc_gemm"};
            e.arch = arch;
            e.sanitized = sanitized;
            e.outName = "%C";
            e.outCount = m * n;
            e.build = [cfg, arch] { return ops::buildTcGemm(*arch, cfg); };
            e.generate = [cfg](Rng &rng) {
                return Inputs{{"%A", randomFp16(rng, cfg.m * cfg.k)},
                               {"%B", randomFp16(rng, cfg.k * cfg.n)},
                               {"%bias", randomFp16(rng, cfg.n)},
                               {"%C", randomFp16(rng, cfg.m * cfg.n)}};
            };
            e.check = [cfg, ampere](const Inputs &in, const Vec &got) {
                const bool bias = cfg.epilogue == ops::Epilogue::Bias
                    || cfg.epilogue == ops::Epilogue::BiasRelu
                    || cfg.epilogue == ops::Epilogue::BiasGelu;
                OpKind act = OpKind::Identity;
                if (cfg.epilogue == ops::Epilogue::Relu
                    || cfg.epilogue == ops::Epilogue::BiasRelu)
                    act = OpKind::Relu;
                else if (cfg.epilogue == ops::Epilogue::BiasGelu)
                    act = OpKind::Gelu;
                return bitExact(
                    got, ref::tcGemmFp16(
                             input(in, "%A"), input(in, "%B"), cfg.m, cfg.n,
                             cfg.k, ampere ? 16 : 4, cfg.alpha,
                             cfg.loadC ? &input(in, "%C") : nullptr,
                             bias ? &input(in, "%bias") : nullptr, act));
            };
            cat.push_back(std::move(e));
        };
        tcGemm(128, 128, 64, ops::Epilogue::None, 1.0, false, true, false);
        tcGemm(256, 128, 64, ops::Epilogue::BiasRelu, 0.5, true, true,
               true);
        tcGemm(100, 128, 32, ops::Epilogue::Relu, 1.0, false, false, false);
        tcGemm(256, 256, 64, ops::Epilogue::BiasGelu, 1.0, true, true,
               false);

        auto simpleGemm = [&](int64_t m, int64_t n, int64_t k,
                              bool sanitized) {
            ops::SimpleGemmConfig cfg;
            cfg.m = m;
            cfg.n = n;
            cfg.k = k;
            VerifyEntry e;
            e.entry = {"simple_gemm/" + at + "/" + std::to_string(m) + "x"
                           + std::to_string(n) + "x" + std::to_string(k),
                       "simple_gemm"};
            e.arch = arch;
            e.sanitized = sanitized;
            e.outName = "%C";
            e.outCount = m * n;
            e.build = [cfg] { return ops::buildSimpleGemm(cfg); };
            e.generate = [cfg](Rng &rng) {
                return Inputs{{"%A", randomFp16(rng, cfg.m * cfg.k)},
                               {"%B", randomFp16(rng, cfg.k * cfg.n)},
                               {"%C", randomFp16(rng, cfg.m * cfg.n)}};
            };
            e.check = [cfg](const Inputs &in, const Vec &got) {
                return bitExact(got, ref::simpleGemmFp16(
                                         input(in, "%A"), input(in, "%B"),
                                         input(in, "%C"), cfg.m, cfg.n,
                                         cfg.k));
            };
            cat.push_back(std::move(e));
        };
        simpleGemm(128, 128, 32, true);
        simpleGemm(256, 256, 64, false);

        for (const auto &[op, count, sanitized] :
             {std::tuple<OpKind, int64_t, bool>{
                  ampere ? OpKind::Relu : OpKind::Gelu, 8192, true},
              {ampere ? OpKind::Tanh : OpKind::Sigmoid, 65536, false}}) {
            VerifyEntry e;
            e.entry = {"pointwise/" + at + "/" + opKindName(op) + "/"
                           + std::to_string(count),
                       "pointwise"};
            e.arch = arch;
            e.sanitized = sanitized;
            e.outName = "%y";
            e.outCount = count;
            e.build = [arch, op = op, count = count] {
                return ops::buildUnaryPointwise(*arch, op, count, "%x",
                                                "%y");
            };
            e.generate = [count = count](Rng &rng) {
                return Inputs{{"%x", randomFp16(rng, count, -2.0, 2.0)}};
            };
            e.check = [op = op](const Inputs &in, const Vec &got) {
                return bitExact(got,
                                ref::unaryPointwiseFp16(op, input(in, "%x")));
            };
            cat.push_back(std::move(e));
        }

        for (const auto &[rows, cols, sanitized] :
             {std::tuple<int64_t, int64_t, bool>{8, 1024, true},
              {64, 2048, false}}) {
            ops::LayernormConfig cfg;
            cfg.rows = rows;
            cfg.cols = cols;
            VerifyEntry e;
            e.entry = {"layernorm/" + at + "/" + std::to_string(rows) + "x"
                           + std::to_string(cols),
                       "layernorm"};
            e.arch = arch;
            e.sanitized = sanitized;
            e.outName = "%y";
            e.outCount = rows * cols;
            e.build = [cfg, arch] {
                return ops::buildLayernormFused(*arch, cfg);
            };
            e.generate = [cfg](Rng &rng) {
                return Inputs{
                    {"%x", randomFp16(rng, cfg.rows * cfg.cols)},
                    {"%gamma", randomFp16(rng, cfg.cols, 0.5, 1.5)},
                    {"%beta", randomFp16(rng, cfg.cols, -0.5, 0.5)}};
            };
            e.check = [cfg](const Inputs &in, const Vec &got) {
                return bitExact(got, ref::layernormFp16(
                                         input(in, "%x"),
                                         input(in, "%gamma"),
                                         input(in, "%beta"), cfg.rows,
                                         cfg.cols, cfg.epsilon));
            };
            cat.push_back(std::move(e));
        }

        {
            ops::FusedMlpConfig cfg;
            cfg.m = 128;
            cfg.layers = 3;
            VerifyEntry e;
            e.entry = {"mlp/" + at + "/128x128/layers3", "mlp"};
            e.arch = arch;
            e.sanitized = !ampere;
            e.outName = "%y";
            e.outCount = cfg.m * cfg.width;
            e.build = [cfg, arch] { return ops::buildFusedMlp(*arch, cfg); };
            // Small weights keep relu activations well conditioned.
            e.generate = [cfg](Rng &rng) {
                const int64_t w = cfg.width;
                return Inputs{
                    {"%x", randomFp16(rng, cfg.m * w)},
                    {"%W", randomFp16(rng, cfg.layers * w * w, -0.08, 0.08)},
                    {"%b", randomFp16(rng, cfg.layers * w, -0.2, 0.2)}};
            };
            e.check = [cfg](const Inputs &in, const Vec &got) {
                const int64_t w = cfg.width;
                Vec act = input(in, "%x");
                for (int64_t l = 0; l < cfg.layers; ++l)
                    act = ref::relu(ref::biasAdd(
                        ref::gemm(act, slice(input(in, "%W"), l * w * w, w * w),
                                  cfg.m, w, w),
                        slice(input(in, "%b"), l * w, w), cfg.m, w));
                return within(got, act, 1.0, 0.03);
            };
            cat.push_back(std::move(e));
        }

        {
            ops::FusedLstmConfig cfg;
            cfg.m = 128;
            cfg.n = 128;
            cfg.k = 64;
            VerifyEntry e;
            e.entry = {"lstm/" + at + "/128x128x64", "lstm"};
            e.arch = arch;
            e.sanitized = ampere;
            e.outName = "%out";
            e.outCount = cfg.m * cfg.n;
            e.build = [cfg, arch] { return ops::buildFusedLstm(*arch, cfg); };
            e.generate = [cfg](Rng &rng) {
                return Inputs{
                    {"%x", randomFp16(rng, cfg.m * cfg.k)},
                    {"%h", randomFp16(rng, cfg.m * cfg.k)},
                    {"%Wx", randomFp16(rng, cfg.k * cfg.n, -0.2, 0.2)},
                    {"%Wh", randomFp16(rng, cfg.k * cfg.n, -0.2, 0.2)},
                    {"%bias", randomFp16(rng, cfg.n)}};
            };
            e.check = [cfg](const Inputs &in, const Vec &got) {
                Vec g1 = ref::gemm(input(in, "%x"), input(in, "%Wx"), cfg.m,
                                   cfg.n, cfg.k);
                const Vec g2 = ref::gemm(input(in, "%h"), input(in, "%Wh"),
                                         cfg.m, cfg.n, cfg.k);
                for (size_t i = 0; i < g1.size(); ++i)
                    g1[i] += g2[i];
                return within(got,
                              ref::relu(ref::biasAdd(g1, input(in, "%bias"),
                                                     cfg.m, cfg.n)),
                              1.0, 0.03);
            };
            cat.push_back(std::move(e));
        }

        {
            ops::FmhaConfig cfg;
            cfg.batch = 1;
            cfg.heads = 2;
            cfg.seq = 128;
            cfg.headDim = 64;
            const int64_t elems =
                cfg.batch * cfg.heads * cfg.seq * cfg.headDim;
            VerifyEntry e;
            e.entry = {"fmha/" + at + "/b1h2s128d64", "fmha"};
            e.arch = arch;
            e.sanitized = !ampere;
            e.outName = "%O";
            e.outCount = elems;
            e.build = [cfg, arch] {
                return ops::buildFusedFmha(*arch, cfg);
            };
            e.generate = [elems](Rng &rng) {
                return Inputs{{"%Q", randomFp16(rng, elems)},
                               {"%K", randomFp16(rng, elems)},
                               {"%V", randomFp16(rng, elems)}};
            };
            e.check = [cfg](const Inputs &in, const Vec &got) {
                const int64_t hd = cfg.seq * cfg.headDim;
                for (int64_t h = 0; h < cfg.batch * cfg.heads; ++h) {
                    const Vec want = ref::attention(
                        slice(input(in, "%Q"), h * hd, hd),
                        slice(input(in, "%K"), h * hd, hd),
                        slice(input(in, "%V"), h * hd, hd), cfg.seq,
                        cfg.headDim);
                    if (std::string err =
                            within(slice(got, h * hd, hd), want, 0.5, 0.03);
                        !err.empty())
                        return "head " + std::to_string(h) + ": " + err;
                }
                return std::string();
            };
            cat.push_back(std::move(e));
        }
    }
    return cat;
}

class VerifyWorkload final : public SingleCallerWorkload
{
  public:
    explicit VerifyWorkload(int nproc) : cat_(buildCatalogue()), nproc_(nproc)
    {
        for (const VerifyEntry &e : cat_)
            entries_.push_back(e.entry);
    }

    const std::vector<Entry> &catalogue() const override
    {
        return entries_;
    }

    double setUp(uint64_t seed, Outcome &out) override
    {
        const Clock::time_point t0 = Clock::now();
        ampere_ = std::make_unique<Device>(GpuArch::ampere());
        volta_ = std::make_unique<Device>(GpuArch::volta());
        for (Device *dev : {ampere_.get(), volta_.get()})
            dev->setSimThreads(nproc_);
        kernels_.clear();
        for (const VerifyEntry &e : cat_)
            kernels_.push_back(e.build());
        // Then the first (cold) launch on each device.
        return msSince(t0) / 1000.0
            + runColdOps(*this, {0, cat_.size() / 2}, seed, out);
    }

    /** The inputs op @p opSeed of @p entry gets. */
    Inputs inputs(size_t entry, uint64_t opSeed) const
    {
        Rng rng(opSeed);
        return cat_[entry].generate(rng);
    }

    std::string runOp(size_t entry, uint64_t opSeed, int64_t opId,
                      double &ms, Counts &counts) override
    {
        const Inputs in = inputs(entry, opSeed);
        sim::SanitizerReport report;
        Vec got = launch(entry, in, opId, ms, report);
        counts["sim.blocks"] +=
            static_cast<double>(kernels_[entry].gridSize());
        return check(entry, in, got, report);
    }

    std::string inputTag(size_t entry, uint64_t opSeed) const override
    {
        std::string bytes;
        for (const Buffer &b : inputs(entry, opSeed))
            bytes.append(reinterpret_cast<const char *>(b.data.data()),
                         b.data.size() * sizeof(double));
        return tune::fnv1aHex(bytes);
    }

    /** The op: upload, launch, download. */
    Vec launch(size_t entry, const Inputs &in, int64_t opId, double &ms,
               sim::SanitizerReport &report)
    {
        const VerifyEntry &e = cat_[entry];
        Device &dev = e.arch->hasLdmatrix ? *ampere_ : *volta_;
        OpWindow window(opId);
        {
            Span s("runtime.upload");
            bool outUploaded = false;
            for (const Buffer &b : in) {
                dev.upload(b.name, ScalarType::Fp16, b.data);
                outUploaded = outUploaded || b.name == e.outName;
            }
            if (!outUploaded)
                dev.allocate(e.outName, ScalarType::Fp16, e.outCount);
        }
        {
            Span s(e.sanitized ? "sim.sanitized" : "sim.functional");
            if (e.sanitized)
                dev.setSanitizerMode(sim::SanitizerMode::Report);
            report = dev.launch(kernels_[entry], LaunchMode::Functional)
                         .sanitizer;
            if (e.sanitized)
                dev.setSanitizerMode(sim::SanitizerMode::Off);
        }
        Vec got;
        {
            Span s("runtime.download");
            got = dev.download(e.outName);
        }
        ms = window.close();
        return got;
    }

    std::string check(size_t entry, const Inputs &in, const Vec &got,
                      const sim::SanitizerReport &report) const
    {
        if (!report.clean())
            return "sanitizer: " + report.str();
        return cat_[entry].check(in, got);
    }

  private:
    std::vector<VerifyEntry> cat_;
    std::vector<Entry> entries_;
    int nproc_;
    std::unique_ptr<Device> ampere_, volta_;
    std::vector<Kernel> kernels_;
};

} // namespace

std::unique_ptr<SingleCallerWorkload>
makeVerifyWorkload(int nproc)
{
    return std::make_unique<VerifyWorkload>(nproc);
}

std::string
selfTestVerifyChecker(int nproc)
{
    VerifyWorkload w(nproc);
    Outcome setup;
    w.setUp(1, setup);
    if (setup.failed)
        return "set-up failed: " + setup.failures.front();
    const size_t entry = 0;
    const Inputs in = w.inputs(entry, 99);
    double ms = 0;
    sim::SanitizerReport report;
    Vec got = w.launch(entry, in, -1, ms, report);
    if (std::string err = w.check(entry, in, got, report); !err.empty())
        return "verify checker rejected a correct output: " + err;
    // Flip the lowest mantissa bit of one fp16 element.
    const size_t i = got.size() / 2;
    const uint16_t bits = floatToHalfBits(static_cast<float>(got[i]));
    got[i] = halfBitsToFloat(static_cast<uint16_t>(bits ^ 1u));
    if (w.check(entry, in, got, report).empty())
        return "verify checker accepted a flipped fp16 bit";
    return "";
}

} // namespace hostbench
