#include "service/wire.hpp"

#include <cstdlib>

namespace pythia::service {

ServeAddress
parseServeAddress(const std::string& address)
{
    ServeAddress a;
    if (address.rfind("unix:", 0) == 0) {
        a.is_unix = true;
        a.unix_path = address.substr(5);
        return a;
    }
    if (address.rfind("tcp:", 0) != 0)
        throw ServeError("serve address must be unix:<path> or "
                         "tcp:[<host>:]<port>, got '" +
                         address + "'");
    std::string port = address.substr(4);
    const std::size_t colon = port.rfind(':');
    if (colon != std::string::npos) {
        const std::string host = port.substr(0, colon);
        if (host != "127.0.0.1" && host != "localhost")
            throw ServeError("serve address is loopback only; got host '" +
                             host + "' in " + address);
        port = port.substr(colon + 1);
    }
    char* end = nullptr;
    const long n = std::strtol(port.c_str(), &end, 10);
    if (port.empty() || *end != '\0' || n < 0 || n > 65535)
        throw ServeError("bad tcp port '" + port + "' in " + address);
    a.tcp_port = static_cast<std::uint16_t>(n);
    return a;
}

namespace {

snap::Writer
beginPayload(FrameType type)
{
    snap::Writer w;
    w.u8(static_cast<std::uint8_t>(type));
    return w;
}

/** Reader over the payload with the type byte already consumed; its
 *  errors name the frame (@p format, e.g. "hello frame"). */
snap::Reader
bodyReader(const std::vector<std::uint8_t>& payload, FrameType expected,
           const char* format)
{
    if (frameType(payload) != expected)
        throw ServeWireError("serve wire: unexpected frame type " +
                             std::to_string(payload.empty() ? 0
                                                            : payload[0]));
    snap::Reader r(payload.data(), payload.size(), format);
    r.u8(); // type
    return r;
}

/** Decode bodies under one catch: a malformed payload surfaces as a
 *  ServeWireError ("serve wire: <frame> corrupt: …"), never a bare
 *  snap error. */
template <typename Fn>
auto
decodeGuard(Fn&& fn) -> decltype(fn())
{
    try {
        return fn();
    } catch (const snap::SnapshotError& e) {
        throw ServeWireError(std::string("serve wire: ") + e.what());
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
    wl::encodeRecords(w, records, n);
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
    return decodeGuard([&] {
        snap::Reader r =
            bodyReader(payload, FrameType::kHello, "hello frame");
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
    return decodeGuard([&] {
        snap::Reader r =
            bodyReader(payload, FrameType::kHelloAck, "hello-ack frame");
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
    return decodeGuard([&] {
        snap::Reader r =
            bodyReader(payload, FrameType::kAccess, "access frame");
        std::vector<wl::TraceRecord> records = wl::decodeRecords(r);
        requireEnd(r, "access");
        return records;
    });
}

WindowMsg
decodeWindow(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard([&] {
        snap::Reader r =
            bodyReader(payload, FrameType::kWindow, "window frame");
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
    return decodeGuard([&] {
        snap::Reader r =
            bodyReader(payload, FrameType::kRunEnd, "run-end frame");
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
    return decodeGuard([&] {
        snap::Reader r =
            bodyReader(payload, FrameType::kDetachAck, "detach-ack frame");
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
    return decodeGuard([&] {
        snap::Reader r =
            bodyReader(payload, FrameType::kStatsAck, "stats-ack frame");
        std::string json = r.str();
        requireEnd(r, "stats-ack");
        return json;
    });
}

ErrorMsg
decodeError(const std::vector<std::uint8_t>& payload)
{
    return decodeGuard([&] {
        snap::Reader r =
            bodyReader(payload, FrameType::kError, "error frame");
        ErrorMsg m;
        m.kind = r.u32();
        m.message = r.str();
        requireEnd(r, "error");
        return m;
    });
}

} // namespace pythia::service
