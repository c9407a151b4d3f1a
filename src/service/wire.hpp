/**
 * @file
 * pythia-serve-v1 — the prefetch-as-a-service wire protocol.
 *
 * Frames are those of the shared transport (common/transport.hpp),
 * the same codec and payload cap as pythia-shard-v1: a u32
 * little-endian payload length followed by the payload, whose first
 * byte is the FrameType. This file holds only the payloads. They ride
 * the snap::Writer/Reader codec, so integers are fixed-width
 * little-endian and floats travel as IEEE-754 bit patterns — windowed
 * metrics deserialize on the client bit-identically to what the
 * server measured.
 *
 * Conversation (client ↔ daemon):
 *
 *     client → kHello     (schema, version, tenant, spec, window_instrs)
 *     server → kHelloAck  (resumed?, instrs_advanced, windows_completed,
 *                          records_received)
 *     client → kAccess*   (batches of trace records)
 *     server → kWindow*   (one per completed measurement window, with
 *                          records_consumed for client flow control)
 *     server → kRunEnd    (final cumulative RunResult; sim budget spent)
 *     client → kDetach    (optional: evict me — snapshot to disk)
 *     server → kDetachAck (records_received = resume point)
 *
 *     client → kStats     (on any connection)
 *     server → kStatsAck  (aggregate daemon stats JSON)
 *
 *     server → kError     (typed; the connection closes after it)
 *
 * The serving determinism rule (DESIGN.md §12): the kWindow stream a
 * tenant receives is bit-identical to running the same spec offline
 * through SimSession with the same window_instrs — including across an
 * evict/restore cycle, because eviction persists the full streamed
 * history (StreamWorkload) plus a pythia-snap-v1 snapshot, and restore
 * replays both.
 */
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/session.hpp"
#include "harness/spec.hpp"
#include "sim/core.hpp"
#include "workloads/trace.hpp"

namespace pythia::service {

// ------------------------------------------------------------- errors

/** Base class of every service failure. */
class ServeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Wire violation: bad frame length, unknown type, malformed payload,
 *  schema/version mismatch, truncated stream. */
class ServeWireError : public ServeError
{
  public:
    using ServeError::ServeError;
};

/** The peer sent a kError frame; carries its typed kind. */
class ServeRemoteError : public ServeError
{
  public:
    ServeRemoteError(std::uint32_t kind, const std::string& message)
        : ServeError(message), kind_(kind)
    {
    }

    std::uint32_t kind() const { return kind_; }

  private:
    std::uint32_t kind_;
};

// ---------------------------------------------------------- addresses

/** A daemon endpoint. The daemon binds only loopback, so a TCP address
 *  carries just a port. */
struct ServeAddress
{
    bool is_unix = false;
    std::string unix_path;      ///< valid when is_unix
    std::uint16_t tcp_port = 0; ///< loopback port when !is_unix
};

/**
 * Parse `unix:<path>`, `tcp:<port>` or `tcp:<host>:<port>`, the one
 * syntax of `pythia_serve listen=` and ServeClient. The host must be
 * 127.0.0.1 or localhost; the port must be decimal in [0, 65535] with
 * nothing after it.
 * @throws ServeError naming the bad part.
 */
ServeAddress parseServeAddress(const std::string& address);

// ---------------------------------------------------------- constants

inline constexpr const char* kServeSchemaName = "pythia-serve-v1";
inline constexpr std::uint32_t kServeVersion = 2;

/**
 * Gating slack, in instructions. The pump advances a window of W
 * instructions only when the streamed-but-unconsumed records carry at
 * least W + kGateSlack instructions (a record retires gap + 1), and
 * runs warmup only past warmup_instrs + kGateSlack. The core calls
 * next() only while its instruction count is below the window's
 * target, and a core of this shape never reads further ahead of
 * retirement than its ROB plus one dispatch group (rob_size + width):
 * every record it starts therefore begins inside the gated span, and
 * a gap-heavy record that straddles the target was already streamed
 * whole. kGateSlack over-covers that read-ahead with headroom.
 */
inline constexpr std::uint64_t kGateSlack = 1024;
static_assert(kGateSlack >= sim::CoreConfig{}.rob_size +
                                sim::CoreConfig{}.width,
              "the pump gates must cover the core's ROB read-ahead");

/**
 * Records a client must capture for @p spec to run to completion: a
 * safe upper bound, not what a run streams. The daemon's last gate
 * asks for the run's warmup + measurement instructions, one kGateSlack,
 * and the overshoot of the warmup and the last window boundary (each
 * under a dispatch group plus one record's gap). Every record retires
 * at least one instruction and each overshooting record contributes
 * its own gap, so warmup + measurement + 2·kGateSlack records always
 * reach it. ServeClient::streamRun sends only the prefix the run
 * consumes plus its instruction-counted read-ahead.
 */
inline std::uint64_t
recordBudgetFor(const harness::ExperimentSpec& spec)
{
    return spec.warmup_instrs + spec.sim_instrs + 2 * kGateSlack;
}

// -------------------------------------------------------- frame types

enum class FrameType : std::uint8_t {
    kHello = 1,
    kHelloAck = 2,
    kAccess = 3,
    kWindow = 4,
    kRunEnd = 5,
    kDetach = 6,
    kDetachAck = 7,
    kStats = 8,
    kStatsAck = 9,
    kError = 10,
};

/** kError taxonomy, mirrored into ServeRemoteError::kind(). */
enum ErrorKind : std::uint32_t {
    kErrProtocol = 1, ///< malformed/unexpected frame, schema mismatch
    kErrSpec = 2,     ///< unacceptable spec (multi-core, unknown names)
    kErrResume = 3,   ///< evicted state exists but cannot be restored
    kErrBusy = 4,     ///< tenant already attached on another connection
    kErrInternal = 5, ///< simulation failure inside the daemon
};

// ----------------------------------------------------------- messages

// Each message lists its payload fields once; the frame type byte
// precedes them, and a decode must consume the payload exactly.

/** The schema and version that open a Hello and a HelloAck. A decode
 *  checks them before it reads on, so a peer of another protocol or
 *  version gets that error whatever layout follows. */
struct Preamble
{
    std::string schema = kServeSchemaName;
    std::uint32_t version = kServeVersion;

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.schema, self.version);
    }

    /** @throws ServeWireError on another schema or version. */
    void afterRestore() const;
};

struct HelloMsg
{
    Preamble preamble;
    std::string tenant;
    harness::ExperimentSpec spec;
    std::uint64_t window_instrs = 0;

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.preamble, self.tenant, self.spec, self.window_instrs);
    }
};

struct HelloAckMsg
{
    Preamble preamble;
    bool resumed = false; ///< session restored from evicted state
    /** Session forked from a machine in the daemon's shared warm pool:
     *  warmup was skipped bit-exactly, and records_received already
     *  covers the pooled warmup prefix. */
    bool warm = false;
    std::uint64_t instrs_advanced = 0;
    std::uint64_t windows_completed = 0;
    /** Records the daemon already holds for this tenant — the client
     *  resumes streaming from this index. */
    std::uint64_t records_received = 0;
    /** Records the restored session has already consumed — seeds the
     *  client's flow-control window so a resume never stalls waiting
     *  for a first kWindow ack. */
    std::uint64_t records_consumed = 0;

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.preamble, self.resumed, self.warm, self.instrs_advanced,
           self.windows_completed, self.records_received,
           self.records_consumed);
    }
};

struct WindowMsg
{
    harness::WindowSample window;
    /** Stream position the session has consumed (flow control). */
    std::uint64_t records_consumed = 0;

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.window, self.records_consumed);
    }
};

struct RunEndMsg
{
    sim::RunResult final_result;
    std::uint64_t windows_completed = 0;
    std::uint64_t records_consumed = 0;

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.final_result, self.windows_completed,
           self.records_consumed);
    }
};

struct DetachAckMsg
{
    std::uint64_t records_received = 0;
    std::uint64_t instrs_advanced = 0;
    std::uint64_t windows_completed = 0;

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.records_received, self.instrs_advanced,
           self.windows_completed);
    }
};

struct ErrorMsg
{
    std::uint32_t kind = kErrInternal;
    std::string message;

    template <class Self, class Ar>
    static void fields(Self& self, Ar& ar)
    {
        ar(self.kind, self.message);
    }
};

// ------------------------------------------------- payload encode/decode

std::vector<std::uint8_t> encodeHello(const HelloMsg& m);
std::vector<std::uint8_t> encodeHelloAck(const HelloAckMsg& m);
std::vector<std::uint8_t> encodeAccess(const wl::TraceRecord* records,
                                       std::size_t n);
std::vector<std::uint8_t> encodeWindow(const WindowMsg& m);
std::vector<std::uint8_t> encodeRunEnd(const RunEndMsg& m);
std::vector<std::uint8_t> encodeDetach();
std::vector<std::uint8_t> encodeDetachAck(const DetachAckMsg& m);
std::vector<std::uint8_t> encodeStats();
std::vector<std::uint8_t> encodeStatsAck(const std::string& json);
std::vector<std::uint8_t> encodeError(std::uint32_t kind,
                                      const std::string& message);

/** First byte of @p payload as a FrameType.
 *  @throws ServeWireError on empty payload or unknown type. */
FrameType frameType(const std::vector<std::uint8_t>& payload);

/** Decode the payload body after the type byte. Each throws
 *  ServeWireError on malformed bytes (wrapping snap::CorruptError). */
HelloMsg decodeHello(const std::vector<std::uint8_t>& payload);
HelloAckMsg decodeHelloAck(const std::vector<std::uint8_t>& payload);
std::vector<wl::TraceRecord>
decodeAccess(const std::vector<std::uint8_t>& payload);
WindowMsg decodeWindow(const std::vector<std::uint8_t>& payload);
RunEndMsg decodeRunEnd(const std::vector<std::uint8_t>& payload);
DetachAckMsg decodeDetachAck(const std::vector<std::uint8_t>& payload);
std::string decodeStatsAck(const std::vector<std::uint8_t>& payload);
ErrorMsg decodeError(const std::vector<std::uint8_t>& payload);

} // namespace pythia::service
