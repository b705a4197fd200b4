/**
 * @file
 * Benchmark runner. Runs one named workload over and over for a time
 * budget, calling only the public entry points of src/graph,
 * src/core (NovaSystem::run, ServingSystem::run) and
 * src/workloads/reference. Every call is timed from outside with
 * steady_clock; the model's own counters come from RunResult::extra
 * and ServingReport. Every answer is checked.
 *
 * A run starts with one untimed warm-up repetition of instance 0, then
 * cycles over the workload's instances (independent inputs drawn from
 * the seed) until the time budget is spent and at least one full pass
 * is done. The warm-up and the first timed pass both run instance 0:
 * that is the determinism repeat.
 *
 * Output is JSON lines on stdout, aggregated by run.py:
 *   {"type": "rep", ...}     one per repetition (timings, counters)
 *   {"type": "span", ...}    spans of traced repetitions, at the end
 *   {"type": "process", ...} peak RSS, last
 *
 * Usage:
 *   perfbench_runner --workload=<name> --seed=<n> --seconds=<s>
 *                    [--trace=0|1] [--threads=<n>] [--reduced]
 *
 * --trace=1 runs every timed repetition twice, untraced and traced (in
 * alternating order), so the pair gives the tracing overhead; only
 * traced repetitions keep spans. --threads and --reduced exist for the
 * thread-invariance test (test_perfbench.py): they change the host
 * thread count (default 1), or shrink the graph to one small instance.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serving.hh"
#include "core/system.hh"
#include "graph/generators.hh"
#include "graph/graph_stats.hh"
#include "graph/partition.hh"
#include "sim/arrivals.hh"
#include "sim/event_queue.hh"
#include "workloads/programs.hh"
#include "workloads/reference.hh"

namespace
{

using namespace nova;
// novalint:allow(wall-clock) host time is what this benchmark measures
using Clock = std::chrono::steady_clock;

/** The three workloads; see README.md for why each was chosen. */
struct WorkloadSpec
{
    const char *name;
    enum Kind { Sssp, PageRank, Serve } kind;
    graph::VertexId vertices;
    graph::EdgeId edges;
    std::uint32_t gpns; ///< engine GPNs, or GPNs per serving group
    /**
     * Independent inputs (graph, mapping, arrivals) drawn from the
     * seed. Host cost differs from one RMAT draw to the next (SSSP
     * reach by a few percent; a serving campaign by ~20%, as four hot
     * vertices per tenant decide what most of its queries touch), so a
     * run takes medians over this many draws to keep its figures
     * steady from seed to seed.
     */
    int instances;
};

const WorkloadSpec workloadSpecs[] = {
    {"sssp_rmat_1gpn", WorkloadSpec::Sssp, 16384, 262144, 1, 6},
    {"pr_rmat_8gpn_t1", WorkloadSpec::PageRank, 8192, 65536, 8, 4},
    {"serve_rmat_mixed", WorkloadSpec::Serve, 1024, 8192, 1, 64},
};

/** Simulated length of one serving campaign (~22 arrivals). */
constexpr sim::Tick campaignTicks = 250'000'000;

/** Seed of instance `j` of a run with seed `seed` (j < 1000). */
std::uint64_t
instanceSeed(std::uint64_t seed, int j)
{
    return seed * 1000 + static_cast<std::uint64_t>(j);
}

/** Scaled-down graph for the thread-invariance test. */
constexpr graph::VertexId reducedVertices = 4096;
constexpr graph::EdgeId reducedEdges = 65536;

/** Preset scale denominator, as nova_cli's default. */
constexpr double modelScale = 1000;

/**
 * Host seconds a repetition spends calling its sequential reference
 * just before the simulator run, and again just after. The mean call is
 * the divisor of slowdown_vs_reference. One call takes a few
 * milliseconds, while the host's speed jitters on that scale, so the
 * calls must span a longer window to sample it as the run does.
 */
constexpr double referenceSeconds = 0.05;

/** PageRank parameters and tolerance, as nova_cli's `pr` workload. */
constexpr double prDamping = 0.85;
constexpr double prTolerance = 1e-9;
constexpr std::uint64_t prIterations = 10;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Calls `fn` until `budget` host seconds have passed; returns the count. */
template <typename F>
int
callFor(double budget, F &&fn)
{
    const auto start = Clock::now();
    int calls = 0;
    do {
        fn();
        ++calls;
    } while (seconds(start, Clock::now()) < budget);
    return calls;
}

double
processCpuSeconds()
{
    timespec ts{};
    // novalint:allow(wall-clock) host CPU time, for core.cpu_util
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * Peak resident set of this process image in KiB. VmHWM, not
 * getrusage's ru_maxrss: on Linux the latter keeps the high-water mark
 * of the image before exec, i.e. of the Python parent that forked us.
 */
long
peakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    if (kb < 0)
        throw std::runtime_error("no VmHWM in /proc/self/status");
    return kb;
}

std::uint64_t
fnvFold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

/** One span: a timed call into a layer, relative to the process epoch. */
struct Span
{
    std::string name;
    int rep;
    int parent; ///< index into the span list, -1 for a repetition root
    double startUs;
    double endUs;
};

/** Everything one repetition measured and checked. */
struct Rep
{
    int index = 0;
    int instance = 0;
    std::uint64_t seed = 0; ///< the instance's input seed
    bool traced = false;
    /** Untimed: the run's first repetition, before caches are warm. */
    bool warmup = false;
    /** Traced runs: the untraced/traced pair this repetition is in. */
    int pair = 0;
    bool ok = true;
    std::string error;
    /** Host seconds per timed call, keyed by span name. */
    std::map<std::string, double> times;
    /** Model counters (deterministic) and host-side extras. */
    std::map<std::string, double> values;
};

/**
 * Times each layer call of one repetition. A traced repetition also
 * keeps the calls as spans; an untraced one only reads the clock.
 */
class RepTimer
{
  public:
    RepTimer(Rep &rep, std::vector<Span> &spans, Clock::time_point epoch)
        : rep(rep), spans(spans), epoch(epoch), start(Clock::now())
    {
        if (rep.traced) {
            root = static_cast<int>(spans.size());
            spans.push_back({"run", rep.index, -1, us(start), 0});
        }
    }

    template <typename F>
    void
    call(const char *name, F &&fn)
    {
        const auto a = Clock::now();
        fn();
        const auto b = Clock::now();
        rep.times[name] += seconds(a, b);
        if (rep.traced)
            spans.push_back({name, rep.index, root, us(a), us(b)});
    }

    /** Close the repetition: wall time and the root span's end. */
    void
    finish()
    {
        const auto end = Clock::now();
        rep.times["wall"] = seconds(start, end);
        if (rep.traced)
            spans[root].endUs = us(end);
    }

    Clock::time_point startTime() const { return start; }

  private:
    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch)
            .count();
    }

    Rep &rep;
    std::vector<Span> &spans;
    Clock::time_point epoch;
    Clock::time_point start;
    int root = -1;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /**
     * Host threads. Every workload runs on one: with more, the cost of
     * waking the scheduler's workers follows the shared host's load.
     */
    std::uint32_t threads = 1;
    bool reduced = false;
};

graph::Csr
makeRmat(graph::VertexId v, graph::EdgeId e, std::uint64_t seed)
{
    graph::RmatParams p;
    p.numVertices = v;
    p.numEdges = e;
    p.maxWeight = 255;
    p.seed = seed;
    return graph::generateRmat(p);
}

void
recordRun(Rep &rep, const workloads::RunResult &r)
{
    auto x = [&r](const char *key) {
        const auto it = r.extra.find(key);
        return it == r.extra.end() ? 0.0 : it->second;
    };
    auto &v = rep.values;
    v["sim.events"] = x("sim.events");
    v["sim.fingerprint"] = x("sim.fingerprint");
    v["sim.ticks"] = static_cast<double>(r.ticks);
    v["core.sim_ms"] = r.seconds() * 1e3;
    v["core.sim_gteps"] = r.gteps();
    v["core.traversed_edges"] = static_cast<double>(r.messagesGenerated);
    v["core.messages_processed"] =
        static_cast<double>(r.messagesProcessed);
    v["core.coalesced_updates"] = static_cast<double>(r.coalescedUpdates);
    v["core.bsp_iterations"] = static_cast<double>(r.bspIterations);
    v["noc.messages"] = x("net.messages");
    v["noc.cross_gpn_messages"] = x("net.crossGpnMessages");
    v["noc.bytes"] = x("net.bytes");
    v["noc.send_rejects"] = x("net.sendRejects");
    v["mem.cache_hits"] = x("cache.hits");
    v["mem.cache_misses"] = x("cache.misses");
    v["mem.mshr_rejects"] = x("cache.mshrRejects");
    v["mem.edge_row_hits"] = x("edgeMem.rowHits");
    v["mem.edge_row_misses"] = x("edgeMem.rowMisses");
    v["mem.vertex_bytes"] =
        x("vertexMem.bytesRead") + x("vertexMem.bytesWritten");
    v["mem.edge_bytes"] = x("edgeMem.bytes");
    v["core.vmu_spills"] = x("vmu.spills");
    v["core.vmu_direct_inserts"] = x("vmu.directInserts");
    v["core.vmu_useful_prefetch_bytes"] =
        x("vertexMem.usefulPrefetchBytes");
    v["core.vmu_wasteful_prefetch_bytes"] =
        x("vertexMem.wastefulPrefetchBytes");
    v["core.mgu_send_stalls"] = x("mgu.sendStalls");
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const std::uint64_t p : r.props)
        digest = fnvFold(digest, p);
    // Low 52 bits: exact in a double, like sim.fingerprint.
    v["result.digest"] =
        static_cast<double>(digest & ((std::uint64_t(1) << 52) - 1));
}

void
runEngineRep(const Options &o, const WorkloadSpec &w, Rep &rep,
             RepTimer &t)
{
    const graph::VertexId nv = o.reduced ? reducedVertices : w.vertices;
    const graph::EdgeId ne = o.reduced ? reducedEdges : w.edges;
    graph::Csr g;
    graph::VertexId src = 0;
    graph::VertexMapping map;
    t.call("graph.generate",
           [&g, nv, ne, &rep] { g = makeRmat(nv, ne, rep.seed); });
    if (w.kind == WorkloadSpec::Sssp)
        t.call("graph.source",
               [&src, &g] { src = graph::highestDegreeVertex(g); });
    t.call("graph.map", [&map, &g, &w, &rep] {
        map = graph::randomMapping(g.numVertices(), w.gpns * 8,
                                    rep.seed);
    });
    core::NovaConfig cfg = core::NovaConfig{}.scaled(modelScale);
    cfg.numGpns = w.gpns;
    cfg.threads = o.threads;
    rep.values["host.threads"] = cfg.threads;
    std::unique_ptr<core::NovaSystem> sys;
    t.call("core.construct",
           [&sys, &cfg] { sys = std::make_unique<core::NovaSystem>(cfg); });
    rep.times["setup"] = seconds(t.startTime(), Clock::now());

    workloads::SsspProgram sssp(src);
    workloads::PageRankProgram pr(prDamping, prTolerance, prIterations);
    workloads::VertexProgram &prog =
        w.kind == WorkloadSpec::Sssp
            ? static_cast<workloads::VertexProgram &>(sssp)
            : pr;
    // The sequential reference computes the same answer on the same
    // input; its host time is the yardstick of slowdown_vs_reference.
    std::vector<std::uint64_t> wantDist;
    std::vector<double> wantRank;
    int referenceCalls = 0;
    auto reference = [&wantDist, &wantRank, &referenceCalls, &w, &g,
                      src] {
        referenceCalls += callFor(referenceSeconds, [&] {
            if (w.kind == WorkloadSpec::Sssp)
                wantDist = workloads::reference::ssspDistances(g, src);
            else
                wantRank = workloads::reference::pagerankDelta(
                    g, prDamping, prTolerance, prIterations);
        });
    };
    t.call("workloads.reference", reference);
    workloads::RunResult r;
    double cpu = 0;
    t.call("core.run", [&r, &cpu, &sys, &prog, &g, &map] {
        const double c0 = processCpuSeconds();
        r = sys->run(prog, g, map);
        cpu = processCpuSeconds() - c0;
    });
    t.call("workloads.reference", reference);
    rep.values["host.reference_call_s"] =
        rep.times["workloads.reference"] / referenceCalls;
    bool valid = true;
    t.call("workloads.validate", [&valid, &w, &r, &pr, &wantDist,
                                  &wantRank] {
        if (w.kind == WorkloadSpec::Sssp) {
            valid = r.props == wantDist;
            return;
        }
        for (std::size_t v = 0; v < wantRank.size(); ++v)
            valid = valid && std::abs(pr.rank()[v] - wantRank[v]) <=
                                 1e-9 + 1e-5 * wantRank[v];
    });
    rep.values["host.run_cpu_s"] = cpu;
    rep.values["graph.edges"] = static_cast<double>(g.numEdges());
    recordRun(rep, r);
    if (r.stoppedAtCheckpoint) {
        rep.ok = false;
        rep.error = "run stopped at a checkpoint";
    } else if (!valid) {
        rep.ok = false;
        rep.error = "result differs from the sequential reference";
    }
}

void
runServeRep(const Options &o, const WorkloadSpec &w, Rep &rep,
            RepTimer &t)
{
    core::ServingConfig scfg;
    scfg.graphSpec = "rmat:" + std::to_string(w.vertices) + ":" +
                     std::to_string(w.edges);
    scfg.arrivals = sim::ArrivalSpec::parse("poisson:12000000");
    scfg.seed = rep.seed;
    scfg.tenants = 4;
    scfg.duration = campaignTicks;
    scfg.groups = 4;
    scfg.gpnsPerGroup = w.gpns;
    scfg.threads = o.threads;
    scfg.scale = modelScale;
    rep.values["host.threads"] = scfg.threads;

    graph::Csr g;
    t.call("graph.generate",
           [&g, &w, &rep] { g = makeRmat(w.vertices, w.edges, rep.seed); });
    std::unique_ptr<core::ServingSystem> sys;
    t.call("core.serving.construct", [&sys, &scfg, &g] {
        sys = std::make_unique<core::ServingSystem>(scfg, g);
    });
    rep.times["setup"] = seconds(t.startTime(), Clock::now());

    // ServingReport keeps no query parameters, so the yardstick of
    // slowdown_vs_reference is a sequential SSSP per served query, from
    // sources taken in turn from a fixed stride over the graph.
    std::vector<std::uint64_t> dist;
    std::uint64_t next = 0;
    int referenceCalls = 0;
    auto reference = [&dist, &next, &referenceCalls, &g] {
        referenceCalls += callFor(referenceSeconds, [&dist, &next, &g] {
            const auto src =
                static_cast<graph::VertexId>(next++ * 97 % g.numVertices());
            dist = workloads::reference::ssspDistances(g, src);
        });
    };
    t.call("workloads.reference", reference);
    core::ServingReport r;
    t.call("core.serving.run", [&r, &sys] { r = sys->run(); });
    t.call("workloads.reference", reference);
    rep.values["host.reference_call_s"] =
        rep.times["workloads.reference"] / referenceCalls;
    bool conserved = false;
    t.call("workloads.validate", [&conserved, &r, &sys] {
        conserved = r.offered == r.served + r.shed + r.pendingAtEnd &&
                    r.served == sys->records().size() && !r.stopped;
    });

    auto &v = rep.values;
    v["graph.edges"] = static_cast<double>(g.numEdges());
    v["core.serving.offered"] = static_cast<double>(r.offered);
    v["core.serving.served"] = static_cast<double>(r.served);
    v["core.serving.shed"] = static_cast<double>(r.shed);
    v["core.serving.pending"] = static_cast<double>(r.pendingAtEnd);
    v["core.serving.dispatches"] = static_cast<double>(r.batches);
    v["core.serving.makespan_ticks"] = static_cast<double>(r.makespan);
    v["core.serving.fingerprint"] = static_cast<double>(
        r.fingerprint & ((std::uint64_t(1) << 52) - 1));
    const auto &stats = sys->stats();
    v["core.serving.latency_samples"] = stats.get("latency.count");
    v["core.serving.sim_latency_p50_ms"] =
        sim::ticksToSeconds(
            static_cast<sim::Tick>(stats.get("latency.p50"))) * 1e3;
    v["core.serving.sim_latency_p99_ms"] =
        sim::ticksToSeconds(
            static_cast<sim::Tick>(stats.get("latency.p99"))) * 1e3;
    if (!conserved) {
        rep.ok = false;
        rep.error = "offered != served + shed + pending";
    }
}

void
printRep(const Rep &rep)
{
    std::printf("{\"type\": \"rep\", \"rep\": %d, \"instance\": %d, "
                "\"seed\": %llu, \"traced\": %s, \"warmup\": %s, "
                "\"pair\": %d, \"ok\": %s, "
                "\"error\": \"%s\", \"times\": {",
                rep.index, rep.instance,
                static_cast<unsigned long long>(rep.seed),
                rep.traced ? "true" : "false",
                rep.warmup ? "true" : "false", rep.pair,
                rep.ok ? "true" : "false",
                jsonEscape(rep.error).c_str());
    const char *sep = "";
    for (const auto &[k, val] : rep.times) {
        std::printf("%s\"%s\": %.9g", sep, k.c_str(), val);
        sep = ", ";
    }
    std::printf("}, \"values\": {");
    sep = "";
    for (const auto &[k, val] : rep.values) {
        std::printf("%s\"%s\": %.17g", sep, k.c_str(), val);
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&a](const char *prefix, std::string &out) {
            const std::size_t n = std::strlen(prefix);
            if (a.compare(0, n, prefix) != 0)
                return false;
            out = a.substr(n);
            return true;
        };
        std::string v;
        if (value("--workload=", o.workload))
            continue;
        if (value("--seed=", v))
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (value("--seconds=", v))
            o.seconds = std::atof(v.c_str());
        else if (value("--trace=", v))
            o.trace = v == "1";
        else if (value("--threads=", v))
            o.threads = static_cast<std::uint32_t>(std::atoi(v.c_str()));
        else if (a == "--reduced")
            o.reduced = true;
        else
            throw std::invalid_argument("unknown option " + a);
    }
    return o;
}

int
runnerMain(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const auto &w : workloadSpecs)
        if (o.workload == w.name)
            spec = &w;
    if (!spec)
        throw std::invalid_argument("unknown workload '" + o.workload +
                                    "'");
    if (!(o.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    if (o.threads == 0)
        throw std::invalid_argument("--threads must be positive");

    // Every workload runs on the calendar queue, whatever the
    // environment asks for.
    sim::EventQueue::ScopedDefaultImpl calendar(
        sim::EventQueue::Impl::Calendar);

    const auto epoch = Clock::now();
    const int instances = o.reduced ? 1 : spec->instances;
    // Stop starting repetitions early enough that the process ends well
    // inside the benchmark's per-run limit.
    constexpr double hardStopSeconds = 140;
    std::vector<Span> spans;
    double longest = 0; ///< longest repetition (pair) so far
    int index = 0;
    // n = -1 is one untimed warm-up repetition of instance 0: it warms
    // the allocator and caches, and gives the determinism repeat.
    for (int n = -1;; ++n) {
        const double elapsed = seconds(epoch, Clock::now());
        if (n > 0 && elapsed + longest > hardStopSeconds)
            break;
        if (n >= instances && elapsed >= o.seconds)
            break;
        const bool warmup = n < 0;
        const int j = warmup ? 0 : n % instances;
        const auto pair_start = Clock::now();
        // Traced runs pair each repetition with an untraced one of the
        // same instance, alternating which goes first.
        const int reps = o.trace && !warmup ? 2 : 1;
        for (int k = 0; k < reps; ++k) {
            Rep rep;
            rep.index = index++;
            rep.instance = j;
            rep.seed = instanceSeed(o.seed, j);
            rep.warmup = warmup;
            rep.pair = n;
            rep.traced = o.trace && !warmup && (k + n) % 2 == 1;
            {
                RepTimer t(rep, spans, epoch);
                try {
                    if (spec->kind == WorkloadSpec::Serve)
                        runServeRep(o, *spec, rep, t);
                    else
                        runEngineRep(o, *spec, rep, t);
                } catch (const std::exception &e) {
                    rep.ok = false;
                    rep.error = e.what();
                }
                t.finish();
            }
            printRep(rep);
        }
        if (!warmup)
            longest = std::max(longest,
                               seconds(pair_start, Clock::now()));
    }

    for (const Span &s : spans)
        std::printf("{\"type\": \"span\", \"name\": \"%s\", \"rep\": %d, "
                    "\"parent\": %d, \"start_us\": %.3f, "
                    "\"end_us\": %.3f}\n",
                    s.name.c_str(), s.rep, s.parent, s.startUs, s.endUs);
    std::printf("{\"type\": \"process\", \"peak_rss_kb\": %ld}\n",
                peakRssKb());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runnerMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
        return 2;
    }
}
