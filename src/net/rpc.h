// RPC core types.
//
// Every metadata service (LocoFS's DMS/FMS and all baseline services) is an
// RpcHandler: a request handler keyed by (opcode, payload bytes).  Clients
// reach servers through a Channel.  Three Channel implementations exist:
//
//   * net::InProcTransport — executes handlers on the calling thread, used
//     by the examples and the multi-threaded integration tests;
//   * sim::SimTransport    — schedules the exchange on the discrete-event
//     simulator's virtual clock, used by every paper experiment;
//   * net::TcpChannel      — real sockets against net::TcpServer daemons
//     (see net/tcp.h and docs/NET.md).
//
// Channel is deliberately asynchronous (completion callback) so the same
// client code — written as coroutines over Channel — runs unchanged on all.
// A fan-out (Channel::FanOutAsync) costs one round, not one per leg, on both
// the simulator (legs overlap in virtual time) and TCP (every leg is on the
// wire before any is awaited).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace loco::net {

// Identifies a server node within a cluster.
using NodeId = std::uint32_t;

constexpr NodeId kInvalidNode = ~NodeId{0};

struct RpcResponse {
  ErrCode code = ErrCode::kOk;
  std::string payload;
  // Virtual time the handler spent on modeled hardware the host cannot
  // execute (storage device I/O, journal flushes).  The simulator adds this
  // to the service time; the real transports (net::TcpServer, in-process)
  // ignore it, so live numbers are the host's own.
  common::Nanos extra_service_ns = 0;

  bool ok() const noexcept { return code == ErrCode::kOk; }
};

// Handler reply shorthands: a bare error, an empty or payload-carrying
// success, and the reply to a request whose payload does not decode.
inline RpcResponse Fail(ErrCode code) { return RpcResponse{code, {}}; }
inline RpcResponse Ok() { return RpcResponse{}; }
inline RpcResponse OkPayload(std::string payload) {
  return RpcResponse{ErrCode::kOk, std::move(payload)};
}
inline RpcResponse BadRequest() { return Fail(ErrCode::kCorruption); }

// Transport-provided context for one request.  Only transports with a wire
// identity fill it in: net::TcpServer passes the client id learned from the
// connection's hello (0 for anonymous clients) so handlers can
// attribute requests — e.g. the DMS excludes the mutating client from its
// own lease invalidations.
struct HandlerContext {
  std::uint64_t client_id = 0;
  std::uint64_t trace_id = 0;
};

// Server-side request handler.
class RpcHandler {
 public:
  virtual ~RpcHandler() = default;
  virtual RpcResponse Handle(std::uint16_t opcode, std::string_view payload) = 0;

  // Context-aware entry point; transports that know who is calling use this.
  // Defaults to the context-free Handle so existing handlers work unchanged.
  // Wrapping handlers (mux routers, fault decorators) MUST forward this
  // overload too or the context is silently dropped.
  virtual RpcResponse HandleCtx(std::uint16_t opcode, std::string_view payload,
                                const HandlerContext& ctx) {
    (void)ctx;
    return Handle(opcode, payload);
  }
};

// Priority class of a call (mirrors wire::kPriority*): foreground is the
// serving hot path, background marks housekeeping traffic (GC liveness
// probes, fsck scans, rename intent resolution) a saturated server sheds
// first, control marks admin RPCs that must get through during an overload.
enum class Priority : std::uint8_t {
  kForeground = 0,
  kBackground = 1,
  kControl = 2,
};

// The deadline a call gets when neither its CallMeta nor its channel's
// options set one.
inline constexpr common::Nanos kDefaultCallDeadlineNs = 5 * common::kSecond;

// Per-call metadata carried alongside a request.  Transports that speak a
// real wire format (net::TcpChannel) put the trace id, remaining deadline
// budget and priority in the frame header and enforce the deadline; the
// in-process and simulated transports ignore these fields.
struct CallMeta {
  // Correlates every RPC issued on behalf of one client operation (the
  // ROADMAP tracing groundwork).  0 means "unassigned": net::Call stamps a
  // fresh process-unique id, so by the time a transport sees the meta the id
  // is always set.
  std::uint64_t trace_id = 0;
  // Per-call deadline; 0 selects the transport's default.
  common::Nanos deadline_ns = 0;
  // Priority class stamped on the wire (docs/OVERLOAD.md).
  Priority priority = Priority::kForeground;
};

// One leg of a fan-out: a call to one server.
struct CallLeg {
  NodeId server = kInvalidNode;
  std::uint16_t opcode = 0;
  std::string payload;
};

// Process-unique, monotonically increasing trace id (never returns 0).
std::uint64_t NextTraceId() noexcept;

// Client-side capability to issue calls.
class Channel {
 public:
  virtual ~Channel() = default;

  // Issue one call; `done` is invoked exactly once with the response.
  // `done` MAY be invoked before CallAsync returns (synchronous transports).
  virtual void CallAsync(NodeId server, std::uint16_t opcode, std::string payload,
                         std::function<void(RpcResponse)> done) = 0;

  // CallAsync with per-call metadata.  The default forwards to CallAsync,
  // dropping the meta — correct for transports with no wire representation
  // for it.  This is what the net::Call awaiters invoke.
  virtual void CallAsyncMeta(NodeId server, std::uint16_t opcode,
                             std::string payload, const CallMeta& meta,
                             std::function<void(RpcResponse)> done);

  // Issue every leg and deliver the responses, in leg order, once all have
  // completed.  Every leg carries `meta` (one trace id, one deadline).  The
  // default issues the legs back-to-back through CallAsyncMeta: the
  // simulator, whose calls complete later, overlaps them in virtual time,
  // while a transport that completes each call inline serializes them.
  // net::TcpChannel and net::ResilientChannel override it to put every leg
  // on the wire before any is awaited.  Legs to one server must differ in
  // opcode or payload: the server's dedup window keys on (trace id, opcode,
  // payload), so identical legs would replay one another's response.
  virtual void FanOutAsync(std::vector<CallLeg> legs, const CallMeta& meta,
                           std::function<void(std::vector<RpcResponse>)> done);

  // The deadline of a call whose CallMeta carries none.  net::TcpChannel
  // answers its TcpChannelOptions::call_deadline_ns; a ResilientChannel
  // spreads its inner channel's over all attempts of a call.
  virtual common::Nanos call_deadline_ns() const {
    return kDefaultCallDeadlineNs;
  }
};

// One call from code that is not a coroutine (fsck, the daemons' GC probes
// and intent resolver): issues it through `channel` and waits for the reply,
// whether the channel completes inline or on another thread.  A zero
// meta.trace_id gets a fresh one.
RpcResponse CallBlocking(Channel& channel, NodeId server, std::uint16_t opcode,
                         std::string payload, CallMeta meta = {});

}  // namespace loco::net
