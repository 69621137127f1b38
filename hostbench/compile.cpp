/**
 * @file
 * `compile`: one caller compiles single kernels cold into every
 * artifact a user asks for — what `profile --json`, `emit-cuda` and a
 * daemon miss cost.  An op is: ops builder, Device::launch(Timing),
 * printKernel, emitCuda, and profile::profileToJson with the metrics
 * document embedded, serialized.
 */

#include <functional>

#include "codegen/cuda_emitter.h"
#include "ir/printer.h"
#include "metrics/metrics.h"
#include "ops/fmha.h"
#include "ops/layernorm.h"
#include "ops/lstm.h"
#include "ops/mlp.h"
#include "ops/simple_gemm.h"
#include "ops/tc_gemm.h"
#include "profile/profile.h"
#include "runtime/device.h"
#include "tune/space.h"
#include "workloads.h"

namespace hostbench
{

using namespace graphene;

namespace
{

struct CompileEntry
{
    Entry entry;
    const GpuArch *arch = nullptr;
    /** Allocates the kernel's virtual buffers on a fresh device. */
    std::function<void(Device &)> allocate;
    /** The ops builder call. */
    std::function<Kernel()> build;
};

struct CompileOutput
{
    double simUs = 0;
    int64_t grid = 0;
    int64_t block = 0;
    int64_t smem = 0;
    std::string ir;
    std::string cuda;
    std::string profileJson;
};

void
vallocAll(Device &dev, const std::vector<std::pair<const char *, int64_t>>
                           &buffers)
{
    for (const auto &b : buffers)
        dev.allocateVirtual(b.first, ScalarType::Fp16, b.second);
}

std::string
archTag(const GpuArch &arch)
{
    return arch.hasLdmatrix ? "ampere" : "volta";
}

/*
 * The catalogue, the same on both architectures:
 * - tc_gemm: the paper's central kernel (Fig. 9/10); shapes, every
 *   epilogue and swizzle on/off change the IR the printer, emitter and
 *   timing simulator walk.
 * - simple_gemm: the smallest IR with the longest scalar loop nest, so
 *   per-statement costs dominate over per-kernel ones.
 * - layernorm: reductions and shuffles with the smallest IR (~11 KB),
 *   over rows x cols.
 * - mlp: the fused MLP (Fig. 11); IR and timing cost grow with the
 *   layer count.
 * - lstm: two GEMMs feeding one epilogue (Fig. 12).
 * - fmha: the largest IR (~128 KB) and the longest timing run
 *   (Fig. 14).
 */
std::vector<CompileEntry>
buildCatalogue()
{
    std::vector<CompileEntry> cat;
    for (const GpuArch *arch : {&GpuArch::ampere(), &GpuArch::volta()}) {
        const std::string at = archTag(*arch);
        auto tcGemm = [&](int64_t m, int64_t n, int64_t k,
                          ops::Epilogue epi, bool swizzle) {
            ops::TcGemmConfig cfg;
            cfg.m = m;
            cfg.n = n;
            cfg.k = k;
            cfg.epilogue = epi;
            cfg.swizzle = swizzle;
            CompileEntry e;
            e.entry.cls = "tc_gemm";
            e.entry.label = "tc_gemm/" + at + "/" + std::to_string(m) + "x"
                + std::to_string(n) + "x" + std::to_string(k) + "/"
                + ops::epilogueName(epi) + (swizzle ? "/swz" : "/noswz");
            e.arch = arch;
            e.allocate = [cfg](Device &dev) {
                vallocAll(dev, {{"%A", cfg.m * cfg.k},
                                {"%B", cfg.k * cfg.n},
                                {"%C", cfg.m * cfg.n},
                                {"%bias", cfg.n}});
            };
            e.build = [cfg, arch] { return ops::buildTcGemm(*arch, cfg); };
            cat.push_back(std::move(e));
        };
        tcGemm(512, 512, 512, ops::Epilogue::None, true);
        tcGemm(1024, 1024, 1024, ops::Epilogue::None, true);
        tcGemm(2048, 1024, 512, ops::Epilogue::None, true);
        tcGemm(2048, 1024, 512, ops::Epilogue::None, false);
        tcGemm(1024, 1024, 1024, ops::Epilogue::Bias, true);
        tcGemm(1024, 1024, 1024, ops::Epilogue::Relu, true);
        tcGemm(1024, 1024, 1024, ops::Epilogue::BiasRelu, true);
        tcGemm(1024, 1024, 1024, ops::Epilogue::BiasGelu, false);

        for (int64_t s : {256, 512}) {
            ops::SimpleGemmConfig cfg;
            cfg.m = cfg.n = cfg.k = s;
            CompileEntry e;
            e.entry = {"simple_gemm/" + at + "/" + std::to_string(s),
                       "simple_gemm"};
            e.arch = arch;
            e.allocate = [cfg](Device &dev) {
                vallocAll(dev, {{"%A", cfg.m * cfg.k},
                                {"%B", cfg.k * cfg.n},
                                {"%C", cfg.m * cfg.n}});
            };
            e.build = [cfg] { return ops::buildSimpleGemm(cfg); };
            cat.push_back(std::move(e));
        }

        for (auto [rows, cols] : {std::pair<int64_t, int64_t>{256, 1024},
                                  {1024, 4096}}) {
            ops::LayernormConfig cfg;
            cfg.rows = rows;
            cfg.cols = cols;
            CompileEntry e;
            e.entry = {"layernorm/" + at + "/" + std::to_string(rows) + "x"
                           + std::to_string(cols),
                       "layernorm"};
            e.arch = arch;
            e.allocate = [cfg](Device &dev) {
                vallocAll(dev, {{"%x", cfg.rows * cfg.cols},
                                {"%gamma", cfg.cols},
                                {"%beta", cfg.cols},
                                {"%y", cfg.rows * cfg.cols}});
            };
            e.build = [cfg, arch] {
                return ops::buildLayernormFused(*arch, cfg);
            };
            cat.push_back(std::move(e));
        }

        for (int64_t layers : {2, 4, 8}) {
            ops::FusedMlpConfig cfg;
            cfg.m = 512;
            cfg.layers = layers;
            CompileEntry e;
            e.entry = {"mlp/" + at + "/layers" + std::to_string(layers),
                       "mlp"};
            e.arch = arch;
            e.allocate = [cfg](Device &dev) {
                vallocAll(dev, {{"%x", cfg.m * cfg.width},
                                {"%W", cfg.layers * cfg.width * cfg.width},
                                {"%b", cfg.layers * cfg.width},
                                {"%y", cfg.m * cfg.width}});
            };
            e.build = [cfg, arch] { return ops::buildFusedMlp(*arch, cfg); };
            cat.push_back(std::move(e));
        }

        {
            ops::FusedLstmConfig cfg;
            cfg.m = 256;
            cfg.n = 256;
            cfg.k = 128;
            CompileEntry e;
            e.entry = {"lstm/" + at + "/256x256x128", "lstm"};
            e.arch = arch;
            e.allocate = [cfg](Device &dev) {
                vallocAll(dev, {{"%x", cfg.m * cfg.k},
                                {"%h", cfg.m * cfg.k},
                                {"%Wx", cfg.k * cfg.n},
                                {"%Wh", cfg.k * cfg.n},
                                {"%bias", cfg.n},
                                {"%out", cfg.m * cfg.n}});
            };
            e.build = [cfg, arch] {
                return ops::buildFusedLstm(*arch, cfg);
            };
            cat.push_back(std::move(e));
        }

        {
            const ops::FmhaConfig cfg;
            CompileEntry e;
            e.entry = {"fmha/" + at + "/b32h16s384d64", "fmha"};
            e.arch = arch;
            e.allocate = [cfg](Device &dev) {
                const int64_t elems =
                    cfg.batch * cfg.heads * cfg.seq * cfg.headDim;
                vallocAll(dev, {{"%Q", elems},
                                {"%K", elems},
                                {"%V", elems},
                                {"%O", elems}});
            };
            e.build = [cfg, arch] {
                return ops::buildFusedFmha(*arch, cfg);
            };
            cat.push_back(std::move(e));
        }
    }
    return cat;
}

/** The op: every call into the program, each in its layer's span. */
CompileOutput
compileOnce(const CompileEntry &e, int64_t opId, double &ms)
{
    CompileOutput out;
    OpWindow window(opId);
    Device dev(*e.arch);
    dev.setSimThreads(1);
    e.allocate(dev);
    const Kernel kernel = [&] {
        Span s("ops.build");
        return e.build();
    }();
    sim::KernelProfile prof;
    {
        Span s("sim.timing");
        prof = dev.launch(kernel, LaunchMode::Timing);
    }
    {
        Span s("ir.print");
        out.ir = printKernel(kernel);
    }
    {
        Span s("codegen.emit");
        out.cuda = emitCuda(kernel, *e.arch);
    }
    metrics::KernelMetrics km;
    {
        Span s("metrics.compute");
        km = metrics::computeKernelMetrics(kernel, *e.arch, prof);
    }
    {
        Span s("profile.json");
        json::Value doc = profile::profileToJson(kernel, *e.arch, prof);
        doc["metrics"] = metrics::metricsToJson(km);
        out.profileJson = doc.dump(2);
    }
    out.simUs = prof.timing.timeUs;
    out.grid = kernel.gridSize();
    out.block = kernel.blockSize();
    out.smem = kernel.sharedMemoryBytes();
    ms = window.close();
    return out;
}

/** What the expected-results file records per entry. */
json::Value
observed(const CompileOutput &out)
{
    json::Value v = json::Value::object();
    v["sim_us"] = out.simUs;
    v["grid"] = out.grid;
    v["block"] = out.block;
    v["smem_bytes"] = out.smem;
    v["ir_fnv1a"] = tune::fnv1aHex(out.ir);
    v["cuda_fnv1a"] = tune::fnv1aHex(out.cuda);
    return v;
}

class CompileWorkload final : public SingleCallerWorkload
{
  public:
    CompileWorkload(const std::string &expectedDir, bool record)
        : cat_(buildCatalogue()),
          expected_(expectedDir + "/compile.json", record)
    {
        for (const CompileEntry &e : cat_)
            entries_.push_back(e.entry);
    }

    const std::vector<Entry> &catalogue() const override
    {
        return entries_;
    }

    double setUp(uint64_t seed, Outcome &out) override
    {
        // Nothing outlives an op; set-up is the first (cold) compile
        // on each architecture.
        return runColdOps(*this, {0, cat_.size() / 2}, seed, out);
    }

    std::string runOp(size_t entry, uint64_t, int64_t opId, double &ms,
                      Counts &counts) override
    {
        const CompileEntry &e = cat_[entry];
        const CompileOutput out = compileOnce(e, opId, ms);
        counts["ir.bytes"] += static_cast<double>(out.ir.size());
        counts["codegen.bytes"] += static_cast<double>(out.cuda.size());
        counts["profile.json_bytes"] +=
            static_cast<double>(out.profileJson.size());
        return expected_.check(e.entry.label, observed(out));
    }

    void finish() override { expected_.save(); }

    const CompileEntry &at(size_t i) const { return cat_[i]; }
    ExpectedFile &expected() { return expected_; }

  private:
    std::vector<CompileEntry> cat_;
    std::vector<Entry> entries_;
    ExpectedFile expected_;
};

} // namespace

std::unique_ptr<SingleCallerWorkload>
makeCompileWorkload(const std::string &expectedDir, bool record)
{
    return std::make_unique<CompileWorkload>(expectedDir, record);
}

std::string
selfTestCompileChecker(const std::string &expectedDir)
{
    CompileWorkload w(expectedDir, false);
    const size_t i = w.catalogue().size() - 1;
    double ms = 0;
    CompileOutput out = compileOnce(w.at(i), -1, ms);
    const std::string label = w.at(i).entry.label;
    if (const std::string err = w.expected().check(label, observed(out));
        !err.empty())
        return "compile checker rejected a correct output: " + err;
    out.simUs += 0.5;
    if (w.expected().check(label, observed(out)).empty())
        return "compile checker accepted a changed sim_us";
    return "";
}

} // namespace hostbench
