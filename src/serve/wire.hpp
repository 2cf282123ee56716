/// \file
/// Wire protocol of the serving layer: JSONL requests and responses.
///
/// One request per line, one response line per request, over either
/// transport (stdin/stdout or a UNIX-domain socket — serve/transport.hpp).
/// Requests:
/// \verbatim
///   {"id":7,"op":"solve","spec":"uniform:n=40,m=4,seed=9"}
///   {"id":8,"op":"solve","instance":"msrs 1\nmachines 4\n..."}
///   {"op":"ping"} {"op":"stats"} {"op":"version"} {"op":"shutdown"}
///   {"id":9,"op":"open_session","session":"s1","machines":8}
///   {"id":10,"op":"submit_job","session":"s1","class":"r0","size":40}
///   {"id":11,"op":"cancel_job","session":"s1","job":0}
///   {"id":12,"op":"snapshot","session":"s1"}
///   {"id":13,"op":"close_session","session":"s1"}
/// \endverbatim
/// `id` is echoed verbatim (null when absent); an optional `"wire":N`
/// member asserts the client's protocol version and fails the request with
/// the named error `wire_version_mismatch` when it differs from
/// kWireVersion. Responses are deterministic bytes: a fixed key order
/// rendered by the canonical util/json writer, so a response body is a pure
/// function of the request (+ solver determinism) — the property the
/// serving smoke test asserts across shard counts.
///
/// Malformed input never kills the service: every defect maps to a named
/// error response `{"id":...,"ok":false,"error":"<code>","detail":"..."}`
/// and the stream continues with the next line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/portfolio.hpp"
#include "util/json.hpp"

namespace msrs::serve {

/// Version of this JSONL protocol; bumped on any incompatible change.
/// Clients (the load driver) handshake via the `version` op and fail fast
/// with a named error on mismatch.
inline constexpr int kWireVersion = 1;

/// Named wire error codes (the stable `error` strings of the protocol).
enum class WireError {
  kParseError,       ///< line is not a JSON document
  kBadRequest,       ///< JSON is well-formed but violates the schema
  kUnknownOp,        ///< `op` names no operation of this protocol
  kBadSpec,          ///< `spec` is not a valid generator spec string
  kBadInstance,      ///< `instance` is not valid instance_io text
  kOverloaded,       ///< admission queue full (reject admission mode)
  kVersionMismatch,  ///< client `wire` version differs from kWireVersion
  kShuttingDown,     ///< service no longer accepts requests
  kUnknownSession,   ///< session op names no open session
  kUnknownJob,       ///< cancel_job names no alive job of the session
  kSessionLimit,     ///< open_session would exceed the open-session cap
};

/// Every wire error code, in enum order — the telemetry layer pre-registers
/// one counter per code so the `stats` error breakdown has a stable key set
/// (new codes are appended, never reordered: the enum value indexes the
/// service's per-code counter table).
inline constexpr WireError kAllWireErrors[] = {
    WireError::kParseError,   WireError::kBadRequest,
    WireError::kUnknownOp,    WireError::kBadSpec,
    WireError::kBadInstance,  WireError::kOverloaded,
    WireError::kVersionMismatch, WireError::kShuttingDown,
    WireError::kUnknownSession,  WireError::kUnknownJob,
    WireError::kSessionLimit,
};

/// The stable wire string of an error code (e.g. "overloaded").
std::string_view wire_error_name(WireError code);

/// Request operations.
enum class Op {
  kSolve,     ///< solve one instance (from `spec` or `instance` text)
  kPing,      ///< liveness probe; answers {"ok":true,"op":"ping"}
  kStats,     ///< service counters snapshot
  kVersion,   ///< schema versions (instance/bench/wire) of the service
  kShutdown,  ///< stop accepting, drain, exit the serve loop
  kOpenSession,   ///< create a named mutable session (engine/session.hpp)
  kSubmitJob,     ///< session mutation: add a job to a class
  kCancelJob,     ///< session mutation: cancel a submitted job
  kSnapshot,      ///< current session schedule (a portfolio race)
  kCloseSession,  ///< drop a session and its state
  kDumpRecorder,  ///< merged flight-recorder dump (obs/flight_recorder.hpp)
};

/// One parsed request line.
struct Request {
  Op op = Op::kPing;     ///< requested operation
  Json id;               ///< client correlation id, echoed verbatim
  int wire = 0;          ///< asserted protocol version (0 = unchecked)
  std::string spec;      ///< kSolve: generator spec string (exclusive
                         ///< with `instance`)
  std::string instance;  ///< kSolve: instance_io text
  int budget_ms = 0;     ///< kSolve: portfolio effort gate (0 = default)
  std::string session;   ///< session ops: the client-chosen session name
  std::string job_class; ///< kSubmitJob: resource-class name (`"class"`)
  int size = 0;          ///< kSubmitJob: job processing time (>= 1)
  int job = -1;          ///< kCancelJob: session job id (-1 = absent)
  int machines = 8;      ///< kOpenSession: machine pool size (>= 1)
  /// kDumpRecorder: canonical (run-independent, sorted by request) vs full
  /// (wall-clock order with timestamps + shard placement) rendering.
  bool canonical = false;
};

/// Parses one JSONL request line. On failure returns std::nullopt and
/// fills `code`/`detail` (both optional) with the named error; `id_out`,
/// when non-null, receives whatever id could be salvaged from the line so
/// the error response still correlates.
std::optional<Request> parse_request(const std::string& line,
                                     WireError* code = nullptr,
                                     std::string* detail = nullptr,
                                     Json* id_out = nullptr);

/// Renders the named error response line (no trailing newline).
std::string error_response(const Json& id, WireError code,
                           std::string_view detail);

/// Renders a solve response line: id, ok, solver provenance, makespan,
/// Lemma-9 bound, ratio, validity. Deterministic bytes for a deterministic
/// result; `from_cache` is deliberately *not* part of the body (it depends
/// on arrival order, not the request) — cache behavior is observable via
/// the `stats` op instead.
std::string solve_response(const Json& id,
                           const engine::PortfolioResult& result);

/// The solve response minus its `{"id":<id>` prefix (starts with the comma
/// before `"ok"`). Every field is isomorphism-invariant, so the tail is
/// shared by all requests of one canonical shape — the serving layer
/// caches it rendered and answers repeats with one concatenation.
std::string solve_response_tail(const engine::PortfolioResult& result);

/// Prepends the id prefix onto a cached tail: the full response line.
std::string compose_response(const Json& id, const std::string& tail);

/// Renders the acknowledgement line of ping/shutdown ops.
std::string ok_response(const Json& id, std::string_view op);

/// Renders the open_session/close_session acknowledgement (op + session
/// name echoed): `{"id":..,"ok":true,"op":"open_session","session":"s1"}`.
std::string session_response(const Json& id, std::string_view op,
                             std::string_view session);

/// Renders the submit_job response carrying the assigned session job id.
std::string submit_response(const Json& id, std::string_view session,
                            std::uint64_t job);

/// Renders the cancel_job acknowledgement.
std::string cancel_response(const Json& id, std::string_view session,
                            std::uint64_t job);

/// The body of a `snapshot` response: the session's current schedule
/// summary. Every field is a pure function of the session's mutation
/// history (a snapshot races the portfolio on the alive jobs), so snapshot
/// responses are byte-identical across shard counts and transports — the
/// serving-layer invariant tests/test_session.cpp pins.
struct SnapshotBody {
  std::string session;   ///< session name (echoed)
  std::size_t jobs = 0;      ///< alive jobs
  std::size_t classes = 0;   ///< classes with at least one alive job
  int machines = 0;          ///< machine pool size
  std::string solver;        ///< winning solver ("empty" when no jobs)
  double makespan = 0.0;     ///< schedule makespan, instance units
  std::int64_t t_bound = 0;  ///< Lemma-9 bound of the current instance
  double ratio = 0.0;        ///< makespan / t_bound
  bool valid = false;        ///< schedule passed core/validate
  std::string source;        ///< "empty" (no alive job) | "resolve"
};

/// Renders a snapshot response line.
std::string snapshot_response(const Json& id, const SnapshotBody& body);

/// Renders the `version` response: instance-format, bench-schema and wire
/// versions of this build (the driver's handshake target).
std::string version_response(const Json& id);

/// The `build_info` label set of this build: schema versions (wire,
/// instance format, bench schema) plus compile-time provenance (compiler,
/// build type, sanitizers). Rendered as a constant-1 info series on the
/// Prometheus page and as an object in the `stats` op.
std::vector<std::pair<std::string, std::string>> build_info_labels();

}  // namespace msrs::serve
