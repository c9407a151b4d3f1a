#include "service/wire.hpp"

namespace pythia::service {

namespace {

snap::Writer
beginPayload(FrameType type)
{
    snap::Writer w;
    w.u8(static_cast<std::uint8_t>(type));
    return w;
}

/** Reader over the payload with the type byte already consumed. */
snap::Reader
bodyReader(const std::vector<std::uint8_t>& payload, FrameType expected)
{
    if (frameType(payload) != expected)
        throw ServeWireError("serve wire: unexpected frame type " +
                             std::to_string(payload.empty() ? 0
                                                            : payload[0]));
    snap::Reader r(payload.data(), payload.size());
    r.u8(); // type
    return r;
}

/** Decode bodies under one catch: a malformed payload surfaces as a
 *  ServeWireError naming the frame, never a bare snap error. */
template <typename Fn>
auto
decodeGuard(const char* what, Fn&& fn) -> decltype(fn())
{
    try {
        return fn();
    } catch (const snap::SnapshotError& e) {
        throw ServeWireError(std::string("serve wire: malformed ") +
                             what + " frame: " + e.what());
    }
}

/** Require the body to be consumed exactly (trailing bytes = corrupt). */
void
requireEnd(snap::Reader& r, const char* what)
{
    if (!r.atEnd())
        throw ServeWireError(std::string("serve wire: ") + what +
                             " frame has " +
                             std::to_string(r.remaining()) +
                             " trailing bytes");
}

constexpr std::uint8_t kFlagWrite = 1u << 0;
constexpr std::uint8_t kFlagDependsOnPrev = 1u << 1;

} // namespace

// ------------------------------------------------------------- encode

std::vector<std::uint8_t>
encodeHello(const HelloMsg& m)
{
    snap::Writer w = beginPayload(FrameType::kHello);
    w.str(kServeSchemaName);
    w.u32(kServeVersion);
    w.str(m.tenant);
    harness::writeSpec(w, m.spec);
    w.u64(m.window_instrs);
    return w.buffer();
}

std::vector<std::uint8_t>
encodeHelloAck(const HelloAckMsg& m)
{
    snap::Writer w = beginPayload(FrameType::kHelloAck);
    w.str(kServeSchemaName);
    w.u32(kServeVersion);
    w.boolean(m.resumed);
    w.boolean(m.warm);
    w.u64(m.instrs_advanced);
    w.u64(m.windows_completed);
    w.u64(m.records_received);
    w.u64(m.records_consumed);
    return w.buffer();
}

std::vector<std::uint8_t>
encodeAccess(const wl::TraceRecord* records, std::size_t n)
{
    snap::Writer w = beginPayload(FrameType::kAccess);
    w.u64(n);
    for (std::size_t i = 0; i < n; ++i) {
        const wl::TraceRecord& r = records[i];
        w.u64(r.pc);
        w.u64(r.addr);
        w.u32(r.gap);
        std::uint8_t flags = 0;
        if (r.is_write)
            flags |= kFlagWrite;
        if (r.depends_on_prev)
            flags |= kFlagDependsOnPrev;
        w.u8(flags);
    }
    return w.buffer();
}

std::vector<std::uint8_t>
encodeWindow(const WindowMsg& m)
{
    snap::Writer w = beginPayload(FrameType::kWindow);
    harness::writeWindowSample(w, m.window);
    w.u64(m.records_consumed);
    return w.buffer();
}

std::vector<std::uint8_t>
encodeRunEnd(const RunEndMsg& m)
{
    snap::Writer w = beginPayload(FrameType::kRunEnd);
    harness::writeRunResult(w, m.final_result);
    w.u64(m.windows_completed);
    w.u64(m.records_consumed);
    return w.buffer();
}

std::vector<std::uint8_t>
encodeDetach()
{
    return beginPayload(FrameType::kDetach).buffer();
}

std::vector<std::uint8_t>
encodeDetachAck(const DetachAckMsg& m)
{
    snap::Writer w = beginPayload(FrameType::kDetachAck);
    w.u64(m.records_received);
    w.u64(m.instrs_advanced);
    w.u64(m.windows_completed);
    return w.buffer();
}

std::vector<std::uint8_t>
encodeStats()
{
    return beginPayload(FrameType::kStats).buffer();
}

std::vector<std::uint8_t>
encodeStatsAck(const std::string& json)
{
    snap::Writer w = beginPayload(FrameType::kStatsAck);
    w.str(json);
    return w.buffer();
}

std::vector<std::uint8_t>
encodeError(std::uint32_t kind, const std::string& message)
{
    snap::Writer w = beginPayload(FrameType::kError);
    w.u32(kind);
    w.str(message);
    return w.buffer();
}

// ------------------------------------------------------------- decode

FrameType
frameType(const std::vector<std::uint8_t>& payload)
{
    if (payload.empty())
        throw ServeWireError("serve wire: empty frame payload");
    const std::uint8_t t = payload[0];
    if (t < static_cast<std::uint8_t>(FrameType::kHello) ||
        t > static_cast<std::uint8_t>(FrameType::kError))
        throw ServeWireError("serve wire: unknown frame type " +
                             std::to_string(t));
    return static_cast<FrameType>(t);
}

HelloMsg
decodeHello(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard("hello", [&] {
        snap::Reader r = bodyReader(payload, FrameType::kHello);
        const std::string schema = r.str();
        if (schema != kServeSchemaName)
            throw ServeWireError("serve wire: schema mismatch: got '" +
                                 schema + "', want '" + kServeSchemaName +
                                 "'");
        const std::uint32_t version = r.u32();
        if (version != kServeVersion)
            throw ServeWireError("serve wire: unsupported version " +
                                 std::to_string(version));
        HelloMsg m;
        m.tenant = r.str();
        m.spec = harness::readSpec(r);
        m.window_instrs = r.u64();
        requireEnd(r, "hello");
        if (m.tenant.empty())
            throw ServeWireError("serve wire: hello with empty tenant id");
        if (m.window_instrs == 0)
            throw ServeWireError(
                "serve wire: hello with window_instrs=0");
        return m;
    });
}

HelloAckMsg
decodeHelloAck(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard("hello-ack", [&] {
        snap::Reader r = bodyReader(payload, FrameType::kHelloAck);
        const std::string schema = r.str();
        if (schema != kServeSchemaName)
            throw ServeWireError("serve wire: schema mismatch: got '" +
                                 schema + "'");
        const std::uint32_t version = r.u32();
        if (version != kServeVersion)
            throw ServeWireError("serve wire: unsupported version " +
                                 std::to_string(version));
        HelloAckMsg m;
        m.resumed = r.boolean();
        m.warm = r.boolean();
        m.instrs_advanced = r.u64();
        m.windows_completed = r.u64();
        m.records_received = r.u64();
        m.records_consumed = r.u64();
        requireEnd(r, "hello-ack");
        return m;
    });
}

std::vector<wl::TraceRecord>
decodeAccess(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard("access", [&] {
        snap::Reader r = bodyReader(payload, FrameType::kAccess);
        const std::uint64_t n = r.u64();
        // Each record is 21 payload bytes; an impossible count is a
        // malformed frame, not an allocation request. No multiply: a
        // hostile n * 21 wraps to the body size.
        if (r.remaining() % 21 != 0 || n != r.remaining() / 21)
            throw ServeWireError(
                "serve wire: access frame count/size mismatch (" +
                std::to_string(n) + " records, " +
                std::to_string(r.remaining()) + " body bytes)");
        std::vector<wl::TraceRecord> records(
            static_cast<std::size_t>(n));
        for (auto& rec : records) {
            rec.pc = r.u64();
            rec.addr = r.u64();
            rec.gap = r.u32();
            const std::uint8_t flags = r.u8();
            if (flags & ~(kFlagWrite | kFlagDependsOnPrev))
                throw ServeWireError(
                    "serve wire: access record with unknown flags " +
                    std::to_string(flags));
            rec.is_write = (flags & kFlagWrite) != 0;
            rec.depends_on_prev = (flags & kFlagDependsOnPrev) != 0;
        }
        requireEnd(r, "access");
        return records;
    });
}

WindowMsg
decodeWindow(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard("window", [&] {
        snap::Reader r = bodyReader(payload, FrameType::kWindow);
        WindowMsg m;
        m.window = harness::readWindowSample(r);
        m.records_consumed = r.u64();
        requireEnd(r, "window");
        return m;
    });
}

RunEndMsg
decodeRunEnd(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard("run-end", [&] {
        snap::Reader r = bodyReader(payload, FrameType::kRunEnd);
        RunEndMsg m;
        m.final_result = harness::readRunResult(r);
        m.windows_completed = r.u64();
        m.records_consumed = r.u64();
        requireEnd(r, "run-end");
        return m;
    });
}

DetachAckMsg
decodeDetachAck(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard("detach-ack", [&] {
        snap::Reader r = bodyReader(payload, FrameType::kDetachAck);
        DetachAckMsg m;
        m.records_received = r.u64();
        m.instrs_advanced = r.u64();
        m.windows_completed = r.u64();
        requireEnd(r, "detach-ack");
        return m;
    });
}

std::string
decodeStatsAck(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard("stats-ack", [&] {
        snap::Reader r = bodyReader(payload, FrameType::kStatsAck);
        std::string json = r.str();
        requireEnd(r, "stats-ack");
        return json;
    });
}

ErrorMsg
decodeError(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard("error", [&] {
        snap::Reader r = bodyReader(payload, FrameType::kError);
        ErrorMsg m;
        m.kind = r.u32();
        m.message = r.str();
        requireEnd(r, "error");
        return m;
    });
}

} // namespace pythia::service
