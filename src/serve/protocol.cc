/**
 * @file
 * Serve protocol implementation: the request option schema and its
 * checks, the prepare/render steps shared with the one-shot CLI path,
 * the circuit/options fingerprints keying the result memo cache, and
 * the transpile report builder.
 */

#include "serve/protocol.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "circuit/qasm.hh"

namespace mirage::serve {

namespace {

/** FNV-1a over a byte range. */
uint64_t
fnv1a(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ULL;
    }
    return h;
}

uint64_t
fnvInt(uint64_t h, int64_t v)
{
    return fnv1a(h, &v, sizeof v);
}

/** Hash the exact bit pattern of a double (no -0.0/0.0 folding: the
 * memo must never serve a result for a circuit it was not computed
 * from, so "bit-identical in, bit-identical out" is the contract). */
uint64_t
fnvDouble(uint64_t h, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return fnv1a(h, &bits, sizeof bits);
}

uint64_t
fnvComplex(uint64_t h, const linalg::Complex &c)
{
    h = fnvDouble(h, c.real());
    return fnvDouble(h, c.imag());
}

} // namespace

mirage_pass::Flow
parseFlow(const std::string &name)
{
    if (name == "sabre")
        return mirage_pass::Flow::SabreBaseline;
    if (name == "mirage-swaps")
        return mirage_pass::Flow::MirageSwaps;
    if (name == "mirage" || name == "mirage-depth")
        return mirage_pass::Flow::MirageDepth;
    throw RequestError("request",
                       "unknown flow '" + name +
                           "' (expected sabre, mirage-swaps, or mirage)");
}

const char *
flowName(mirage_pass::Flow flow)
{
    switch (flow) {
      case mirage_pass::Flow::SabreBaseline: return "sabre";
      case mirage_pass::Flow::MirageSwaps: return "mirage-swaps";
      case mirage_pass::Flow::MirageDepth: return "mirage";
    }
    return "?";
}

namespace {

constexpr int64_t kIntMax = std::numeric_limits<int>::max();
/** Largest basis root a request may ask for: the roots of Figs. 3-5.
 * The coverage build grows with the root and checks no deadline. */
constexpr int64_t kMaxRootDegree = 4;

[[noreturn]] void
rangeError(const RequestOption &o, const std::string &who)
{
    if (o.kind == RequestOption::Kind::Seed)
        throw RequestError("request",
                           who + " must be between 0 and 2^64-1");
    throw RequestError("request", who + " must be between " +
                                      std::to_string(o.min) + " and " +
                                      std::to_string(o.max));
}

/** Largest double below 2^64: every double in [0, this] fits uint64. */
constexpr double kSeedMax = 0x1.fffffffffffffp63;

OptionValue
fromJson(const RequestOption &o, const json::Value &v, const std::string &who)
{
    using Kind = RequestOption::Kind;
    if (o.kind == Kind::Text) {
        if (!v.isString())
            throw RequestError("request", who + " must be a string");
        return v.asString();
    }
    if (o.kind == Kind::Bool) {
        if (!v.isBool())
            throw RequestError("request", who + " must be a boolean");
        return v.asBool();
    }
    if (!v.isNumber())
        throw RequestError("request", who + " must be a number");
    const double d = v.asNumber();
    if (!std::isfinite(d) || d != std::trunc(d))
        throw RequestError("request", who + " must be an integer");
    // Convert only what fits the value type; setOption checks the range.
    if (o.kind == Kind::Int) {
        if (!(d >= -0x1p63 && d < 0x1p63))
            rangeError(o, who);
        return int64_t(d);
    }
    if (!(d >= 0 && d <= kSeedMax))
        rangeError(o, who);
    return uint64_t(d);
}

/** An Int option's value, in int range by its schema bounds. */
int
integer(const OptionValue &v)
{
    return int(std::get<int64_t>(v));
}

} // namespace

const std::vector<RequestOption> &
requestOptions()
{
    using Kind = RequestOption::Kind;
    using R = TranspileRequest;
    using V = OptionValue;
    static const std::string topologyHelp =
        "device coupling map: " + topology::CouplingMap::specForms();
    static const std::vector<RequestOption> schema = {
        {"topology", "--topology", Kind::Text, "auto", 0, 0, "SPEC",
         topologyHelp.c_str(),
         [](R &r, const V &v) { r.topology = std::get<std::string>(v); }},
        {"flow", "--flow", Kind::Text, "mirage", 0, 0, "NAME",
         "pipeline flow: sabre, mirage-swaps, mirage",
         [](R &r, const V &v) {
             r.options.flow = parseFlow(std::get<std::string>(v));
         }},
        {"trials", "--trials", Kind::Int, "8", 1, kIntMax, "N",
         "independent layout trials",
         [](R &r, const V &v) { r.options.layoutTrials = integer(v); }},
        {"swapTrials", "--swap-trials", Kind::Int, "4", 1, kIntMax, "N",
         "routing repeats per layout",
         [](R &r, const V &v) { r.options.swapTrials = integer(v); }},
        {"fwdBwd", "--fwd-bwd", Kind::Int, "2", 0, kIntMax, "N",
         "layout refinement rounds",
         [](R &r, const V &v) {
             r.options.forwardBackwardPasses = integer(v);
         }},
        {"seed", "--seed", Kind::Seed, "20240229", 0, 0, "N",
         "root RNG seed",
         [](R &r, const V &v) { r.options.seed = std::get<uint64_t>(v); }},
        {"aggression", "--aggression", Kind::Int, "-1", -1, 3, "N",
         "fixed mirror aggression 0-3 (-1 = 5/45/45/5 mix)",
         [](R &r, const V &v) { r.options.fixedAggression = integer(v); }},
        {"root", "--root", Kind::Int, "2", 2, kMaxRootDegree, "N",
         "basis gate: the N-th root of iSWAP (2-4)",
         [](R &r, const V &v) { r.options.rootDegree = integer(v); }},
        {"vf2", "--no-vf2", Kind::Bool, "true", 0, 0, "",
         "skip the VF2 SWAP-free layout check",
         [](R &r, const V &v) { r.options.tryVf2 = std::get<bool>(v); }},
        {"lower", "--lower", Kind::Bool, "false", 0, 0, "",
         "lower the routed circuit to RootISWAP pulses and measure pulse "
         "metrics",
         [](R &r, const V &v) {
             r.options.lowerToBasis = std::get<bool>(v);
         }},
        {"deadlineMs", "--deadline-ms", Kind::Int, "0", 0, kIntMax, "N",
         "abort with exit 1 if the pipeline exceeds this compute budget "
         "(0 = none)",
         [](R &r, const V &v) { r.deadlineMs = integer(v); }},
        {"format", "--format", Kind::Text, "json", 0, 0, "FMT",
         "output format: json (report) or qasm (circuit)",
         [](R &r, const V &v) {
             const std::string &f = std::get<std::string>(v);
             if (f != "json" && f != "qasm")
                 throw RequestError("request", "unknown format '" + f +
                                                   "' (expected json or "
                                                   "qasm)");
             r.format = f;
         }},
    };
    return schema;
}

TranspileRequest::TranspileRequest()
{
    using Kind = RequestOption::Kind;
    for (const RequestOption &o : requestOptions()) {
        const std::string text = o.defaultText;
        o.store(*this, o.kind == Kind::Text   ? OptionValue(text)
                       : o.kind == Kind::Bool ? OptionValue(text == "true")
                       : o.kind == Kind::Int
                           ? OptionValue(int64_t(std::stoll(text)))
                           : OptionValue(uint64_t(std::stoull(text))));
    }
}

void
setOption(TranspileRequest &req, const RequestOption &o,
          const OptionValue &value, const std::string &who)
{
    if (o.kind == RequestOption::Kind::Int) {
        const int64_t v = std::get<int64_t>(value);
        if (v < o.min || v > o.max)
            rangeError(o, who);
    }
    o.store(req, value);
}

TranspileRequest
parseTranspileRequest(const json::Value &doc)
{
    if (!doc.isObject())
        throw RequestError("request", "request must be a JSON object");
    TranspileRequest req;
    if (const json::Value *id = doc.find("id"))
        req.id = *id;

    auto stringField = [](const json::Value &v, const char *key) {
        if (!v.isString())
            throw RequestError("request", std::string("field '") + key +
                                              "' must be a string");
        return v.asString();
    };

    bool sawQasm = false;
    for (const auto &[key, value] : doc.members()) {
        if (key == "id" || key == "op")
            continue;
        if (key == "qasm") {
            req.qasm = stringField(value, "qasm");
            sawQasm = true;
        } else if (key == "name") {
            req.name = stringField(value, "name");
        } else if (key == "options") {
            if (!value.isObject())
                throw RequestError("request",
                                   "field 'options' must be an object");
        } else {
            throw RequestError("request", "unknown request field '" + key +
                                              "'");
        }
    }
    if (!sawQasm)
        throw RequestError("request",
                           "transpile request requires a 'qasm' field");

    const json::Value *options = doc.find("options");
    if (!options)
        return req;
    const auto &schema = requestOptions();
    for (const auto &[key, value] : options->members()) {
        auto o = std::find_if(schema.begin(), schema.end(),
                              [&key = key](const RequestOption &s) {
                                  return key == s.key;
                              });
        if (o == schema.end())
            throw RequestError("request", "unknown option '" + key + "'");
        const std::string who = "option '" + key + "'";
        setOption(req, *o, fromJson(*o, value, who), who);
    }
    return req;
}

PreparedTranspile
prepareTranspile(const TranspileRequest &req, const TopologyResolver &resolve)
{
    PreparedTranspile p;
    try {
        p.input = circuit::fromQasm(req.qasm);
    } catch (const circuit::QasmError &e) {
        throw RequestError("qasm", req.name + ":" + std::to_string(e.line()) +
                                       ":" + std::to_string(e.column()) +
                                       ": " + e.message());
    }
    const int needed = p.input.numQubits();
    if (needed == 0)
        throw RequestError("input", "'" + req.name + "' declares no qubits");
    try {
        p.topology = resolve
                         ? resolve(req.topology, p.input)
                         : std::make_shared<const topology::CouplingMap>(
                               topology::CouplingMap::parseSpec(req.topology,
                                                                needed));
    } catch (const std::invalid_argument &e) {
        throw RequestError("request", e.what());
    }
    if (p.topology->numQubits() < needed)
        throw RequestError("input", "topology '" + req.topology + "' has " +
                                        std::to_string(
                                            p.topology->numQubits()) +
                                        " qubits but the circuit needs " +
                                        std::to_string(needed));
    return p;
}

json::Value
renderTranspile(const TranspileRequest &req, const PreparedTranspile &prepared,
                const mirage_pass::TranspileResult &result)
{
    if (req.format == "qasm")
        return circuit::toQasm(result.loweredToBasis ? result.lowered
                                                     : result.routed);
    return transpileReportJson(req.name, prepared.input, *prepared.topology,
                               req.options, result);
}

uint64_t
circuitFingerprint(const circuit::Circuit &c)
{
    uint64_t h = 0xCBF29CE484222325ULL; // FNV offset basis
    h = fnvInt(h, c.numQubits());
    h = fnvInt(h, int64_t(c.size()));
    for (const circuit::Gate &g : c.gates()) {
        h = fnvInt(h, int64_t(g.kind));
        h = fnvInt(h, g.numQubits());
        for (int q : g.qubits)
            h = fnvInt(h, q);
        h = fnvInt(h, int64_t(g.params.size()));
        for (double p : g.params)
            h = fnvDouble(h, p);
        h = fnvInt(h, g.mirrored ? 1 : 0);
        if (g.mat2) {
            h = fnvInt(h, 2);
            for (const auto &e : g.mat2->a)
                h = fnvComplex(h, e);
        }
        if (g.mat4) {
            h = fnvInt(h, 4);
            for (const auto &e : g.mat4->a)
                h = fnvComplex(h, e);
        }
    }
    return h;
}

std::string
resultCacheKey(uint64_t circuit_fingerprint,
               const std::string &topology_name,
               const mirage_pass::TranspileOptions &o,
               const std::string &format)
{
    std::string key;
    key.reserve(96);
    key += std::to_string(circuit_fingerprint);
    key += "|topo=";
    key += topology_name;
    key += "|flow=";
    key += flowName(o.flow);
    key += "|root=" + std::to_string(o.rootDegree);
    key += "|trials=" + std::to_string(o.layoutTrials);
    key += "|swap=" + std::to_string(o.swapTrials);
    key += "|fb=" + std::to_string(o.forwardBackwardPasses);
    key += "|seed=" + std::to_string(o.seed);
    key += "|agg=" + std::to_string(o.fixedAggression);
    key += "|vf2=" + std::to_string(o.tryVf2 ? 1 : 0);
    key += "|lower=" + std::to_string(o.lowerToBasis ? 1 : 0);
    key += "|fmt=" + format;
    return key;
}

namespace {

json::Value
metricsJson(const mirage_pass::CircuitMetrics &m)
{
    json::Value v = json::Value::object();
    v.set("depth", m.depth);
    v.set("totalCost", m.totalCost);
    v.set("depthPulses", m.depthPulses);
    v.set("totalPulses", m.totalPulses);
    v.set("swapGates", m.swapGates);
    v.set("twoQubitGates", m.twoQubitGates);
    return v;
}

} // namespace

json::Value
transpileReportJson(const std::string &file_label,
                    const circuit::Circuit &input,
                    const topology::CouplingMap &topo,
                    const mirage_pass::TranspileOptions &opts,
                    const mirage_pass::TranspileResult &res)
{
    json::Value doc = json::Value::object();
    doc.set("schemaVersion", kProtocolVersion);
    doc.set("kind", "mirage-transpile");
    {
        json::Value in = json::Value::object();
        in.set("file", file_label);
        in.set("qubits", input.numQubits());
        in.set("gates", int(input.size()));
        in.set("twoQubitGates", input.twoQubitGateCount());
        doc.set("input", std::move(in));
    }
    {
        json::Value t = json::Value::object();
        t.set("name", topo.name());
        t.set("qubits", topo.numQubits());
        t.set("edges", int(topo.edges().size()));
        doc.set("topology", std::move(t));
    }
    {
        json::Value o = json::Value::object();
        o.set("flow", flowName(opts.flow));
        o.set("rootDegree", opts.rootDegree);
        o.set("layoutTrials", opts.layoutTrials);
        o.set("swapTrials", opts.swapTrials);
        o.set("forwardBackwardPasses", opts.forwardBackwardPasses);
        o.set("threads", opts.threads);
        o.set("seed", opts.seed);
        o.set("fixedAggression", opts.fixedAggression);
        o.set("tryVf2", opts.tryVf2);
        o.set("lowerToBasis", opts.lowerToBasis);
        doc.set("options", std::move(o));
    }
    {
        json::Value r = json::Value::object();
        r.set("metrics", metricsJson(res.metrics));
        r.set("swapsAdded", res.swapsAdded);
        r.set("mirrorsAccepted", res.mirrorsAccepted);
        r.set("mirrorCandidates", res.mirrorCandidates);
        r.set("mirrorAcceptRate", res.mirrorAcceptRate());
        r.set("usedVf2", res.usedVf2);
        r.set("routedGates", int(res.routed.size()));
        // Hot-path work counters: deterministic (thread-invariant), so
        // the report stays byte-identical across reruns and thread
        // counts. Wall time is deliberately NOT emitted here.
        json::Value c = json::Value::object();
        c.set("stallSteps", res.routingCounters.stallSteps);
        c.set("swapCandidates", res.routingCounters.swapCandidates);
        c.set("heuristicEvals", res.routingCounters.heuristicEvals);
        c.set("mirrorOutlooks", res.routingCounters.mirrorOutlooks);
        c.set("extSetBuilds", res.routingCounters.extSetBuilds);
        c.set("extSetReuses", res.routingCounters.extSetReuses);
        r.set("routingCounters", std::move(c));
        doc.set("result", std::move(r));
    }
    if (res.loweredToBasis) {
        json::Value l = json::Value::object();
        l.set("metrics", metricsJson(res.loweredMetrics));
        l.set("gates", int(res.lowered.size()));
        l.set("blocksTranslated", res.translateStats.blocksTranslated);
        l.set("cacheHits", res.translateStats.cacheHits);
        l.set("newFits", res.translateStats.newFits);
        l.set("worstInfidelity", res.translateStats.worstInfidelity);
        l.set("pulses", res.translateStats.totalPulses);
        doc.set("lowered", std::move(l));
    }
    return doc;
}

json::Value
okEnvelope(const json::Value &id)
{
    json::Value v = json::Value::object();
    v.set("id", id);
    v.set("ok", true);
    return v;
}

json::Value
errorResponse(const json::Value &id, const std::string &code,
              const std::string &message)
{
    json::Value v = okEnvelope(id);
    v.set("ok", false);
    json::Value e = json::Value::object();
    e.set("code", code);
    e.set("message", message);
    v.set("error", std::move(e));
    return v;
}

json::Value
errorResponse(const json::Value &id, const std::string &code,
              const std::string &message, double retry_after_ms)
{
    json::Value v = okEnvelope(id);
    v.set("ok", false);
    json::Value e = json::Value::object();
    e.set("code", code);
    e.set("message", message);
    e.set("retryAfterMs", retry_after_ms);
    v.set("error", std::move(e));
    return v;
}

} // namespace mirage::serve
