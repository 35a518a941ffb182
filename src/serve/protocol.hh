/**
 * @file
 * Request/response schema of the `mirage serve` transpilation service.
 *
 * The wire protocol is deliberately minimal: one JSON object per line
 * in each direction (newline-delimited, over a Unix socket or stdio).
 * A request carries an `op` ("transpile", "stats", "ping", "shutdown";
 * default "transpile"), an optional client-chosen `id` that is echoed
 * verbatim in the response, and for transpile the OpenQASM 2 `qasm`
 * text plus an `options` object mirroring the `mirage transpile`
 * flags. Every response is a single JSON object with `ok` true/false;
 * failures carry a structured `error` {code, message} instead of
 * killing the connection or the server.
 *
 * This header also hosts the one transpile request path the one-shot
 * CLI shares with the server: the option schema (JSON key, flag,
 * default and range of every option), prepareTranspile() and
 * renderTranspile(). So a served response is bit-identical to
 * `mirage transpile` output with the same options by construction,
 * not by parallel evolution.
 */

#ifndef MIRAGE_SERVE_PROTOCOL_HH
#define MIRAGE_SERVE_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "circuit/circuit.hh"
#include "common/json.hh"
#include "mirage/pipeline.hh"
#include "topology/coupling.hh"

namespace mirage::serve {

/** Version stamped into transpile reports and bench artifacts. */
inline constexpr int kProtocolVersion = 1;

/**
 * Schema violation in an otherwise well-formed JSON request: unknown
 * op, missing/ill-typed field, or an option value outside its valid
 * range. Maps to a structured {code, message} error response.
 */
class RequestError : public std::runtime_error
{
  public:
    RequestError(std::string code, const std::string &message)
        : std::runtime_error(message), code_(std::move(code))
    {
    }

    /** Stable machine-readable discriminator ("request", "qasm", ...). */
    const std::string &code() const { return code_; }

  private:
    std::string code_;
};

/**
 * Load-shed rejection ("overloaded"): the admission queue is full. The
 * response carries `retryAfterMs`, the engine's estimate of when the
 * backlog will have drained, so well-behaved clients back off instead
 * of hammering a saturated server.
 */
class OverloadedError : public RequestError
{
  public:
    explicit OverloadedError(const std::string &message,
                             double retry_after_ms)
        : RequestError("overloaded", message),
          retryAfterMs_(retry_after_ms)
    {
    }

    double retryAfterMs() const { return retryAfterMs_; }

  private:
    double retryAfterMs_;
};

struct TranspileRequest;

/** A request option value, typed by its option's Kind. */
using OptionValue = std::variant<std::string, int64_t, uint64_t, bool>;

/**
 * One transpile request option, as both front doors spell it: its JSON
 * key inside a serve request's "options", its `mirage transpile` flag,
 * the default both share, and its range. requestOptions() is the whole
 * schema; every range check on request numbers happens against it,
 * before any narrowing cast.
 */
struct RequestOption
{
    enum class Kind
    {
        Text, ///< string (OptionValue holds std::string)
        Int,  ///< integer in [min, max] (int64_t)
        Seed, ///< integer in [0, 2^64-1] (uint64_t)
        Bool, ///< bool; its flag takes no value and flips the default
    };
    const char *key;
    const char *flag;
    Kind kind;
    const char *defaultText; ///< the default, spelled as flag text
    int64_t min, max;        ///< inclusive range of an Int option
    const char *valueName;   ///< --help placeholder ("" for Bool)
    const char *help;        ///< --help text
    /** Store a checked value; throws RequestError on a bad choice. */
    void (*store)(TranspileRequest &, const OptionValue &);
};

/** The request option schema, in --help order. */
const std::vector<RequestOption> &requestOptions();

/**
 * One transpile request (transport- and cache-agnostic), filled from
 * JSON by parseTranspileRequest() or from flags through setOption().
 */
struct TranspileRequest
{
    /** Every option at its requestOptions() default. */
    TranspileRequest();

    /** Echoed verbatim in the response; null when the client sent none. */
    json::Value id;
    /** Label of the input: the report's input.file and the prefix of
     * QASM error locations. */
    std::string name = "<request>";
    /** OpenQASM 2 source of the circuit to transpile. */
    std::string qasm;
    /** Device spec (topology::CouplingMap::parseSpec forms). */
    std::string topology;
    /** "json" (full report) or "qasm" (routed/lowered circuit). */
    std::string format;
    /**
     * Pipeline options. threads/pool/equivalenceLibrary/deadline are
     * set by the front door, not by request options.
     */
    mirage_pass::TranspileOptions options;
    /**
     * Compute budget in milliseconds (0 = none). The serve engine caps
     * it at its own --deadline-ms when one is set. NOT part of the
     * cache key: a deadline never changes a completed result, only
     * whether one is produced.
     */
    double deadlineMs = 0;
};

/**
 * Parse the `options`/`qasm`/`name` fields of a transpile request
 * document. Throws RequestError("request") on unknown keys, ill-typed
 * values, or out-of-range numbers, naming the option as "option
 * '<key>'".
 */
TranspileRequest parseTranspileRequest(const json::Value &doc);

/**
 * Store `value` (of `option`'s kind) in `req` after the range check
 * every request number goes through. Throws RequestError("request")
 * naming the option as `who` (its flag, or "option '<key>'").
 */
void setOption(TranspileRequest &req, const RequestOption &option,
               const OptionValue &value, const std::string &who);

/** A request's circuit and the device it runs on. */
struct PreparedTranspile
{
    circuit::Circuit input;
    std::shared_ptr<const topology::CouplingMap> topology;
};

/**
 * Resolves a device spec for the parsed `input` circuit; throws
 * std::invalid_argument on a bad spec (as CouplingMap::parseSpec does)
 * and may throw RequestError to refuse the circuit before any topology
 * is built (the serve engine's size caps).
 */
using TopologyResolver =
    std::function<std::shared_ptr<const topology::CouplingMap>(
        const std::string &spec, const circuit::Circuit &input)>;

/**
 * The checks both front doors run before routing: parse `req.qasm`
 * (RequestError "qasm", located as "<req.name>:line:col: ..."), reject
 * a circuit that declares no qubits ("input"), resolve `req.topology`
 * through `resolve` (empty = CouplingMap::parseSpec sized by the
 * circuit; a bad spec is "request"), and reject a device smaller than
 * the circuit ("input").
 */
PreparedTranspile prepareTranspile(const TranspileRequest &req,
                                   const TopologyResolver &resolve = {});

/**
 * `result` in `req.format`: the transpileReportJson() object ("json"),
 * or a string holding the lowered, else routed, circuit's QASM.
 */
json::Value renderTranspile(const TranspileRequest &req,
                            const PreparedTranspile &prepared,
                            const mirage_pass::TranspileResult &result);

/** Flow name <-> enum (shared with the CLI's --flow flag). */
mirage_pass::Flow parseFlow(const std::string &name); ///< throws RequestError
const char *flowName(mirage_pass::Flow flow);

/**
 * 64-bit structural fingerprint of a circuit: FNV-1a over qubit count
 * and every gate's kind, operands, exact parameter bits, and explicit
 * matrices. Collisions are as unlikely as a 64-bit hash allows; the
 * memo cache uses this (not gate-list equality) as its key component.
 */
uint64_t circuitFingerprint(const circuit::Circuit &circuit);

/**
 * Canonical cache-key string for (circuit, topology, options, format).
 * Uses the RESOLVED topology name (so "auto" keys by the grid it chose)
 * and excludes `threads`/`pool` -- output is bit-identical across
 * thread counts by the trial engine's guarantee, so they must not
 * fragment the cache.
 */
std::string resultCacheKey(uint64_t circuit_fingerprint,
                           const std::string &topology_name,
                           const mirage_pass::TranspileOptions &options,
                           const std::string &format);

/**
 * The `mirage transpile` JSON report (schemaVersion / kind /
 * input / topology / options / result [/ lowered]). Shared by the
 * one-shot CLI path and the serve engine so the two are bit-identical.
 */
json::Value transpileReportJson(const std::string &file_label,
                                const circuit::Circuit &input,
                                const topology::CouplingMap &topology,
                                const mirage_pass::TranspileOptions &options,
                                const mirage_pass::TranspileResult &result);

/** {"id": <id>, "ok": true} -- the start of every success response. */
json::Value okEnvelope(const json::Value &id);

/**
 * {"id": <id>, "ok": false, "error": {"code": ..., "message": ...}}.
 * `code` is one of: "parse" (malformed JSON), "request" (schema or
 * option-range violation), "qasm" (circuit text failed to parse),
 * "input" (circuit/topology mismatch), "toolarge" (circuit exceeds the
 * server's --max-qubits/--max-gates caps), "overloaded" (admission
 * queue full; the error object carries `retryAfterMs`), "deadline"
 * (request budget exhausted mid-pipeline), "fault" (an injected chaos
 * fault fired), "shutdown" (server draining), "internal" (unexpected
 * exception). docs/ARCHITECTURE.md "Failure model" is the normative
 * list; tests/test_chaos.cc pins that no other code can escape.
 */
json::Value errorResponse(const json::Value &id, const std::string &code,
                          const std::string &message);

/** errorResponse plus an `error.retryAfterMs` hint (for "overloaded"). */
json::Value errorResponse(const json::Value &id, const std::string &code,
                          const std::string &message, double retry_after_ms);

} // namespace mirage::serve

#endif // MIRAGE_SERVE_PROTOCOL_HH
