#include "service/wire.hpp"

#include <charconv>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/un.h>

#include "snapshot/archive.hpp"

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
    // Decimal digits only: no sign, no whitespace, no 65536 and up.
    const char* last = port.data() + port.size();
    const auto [end, ec] = std::from_chars(port.data(), last, a.tcp_port);
    if (port.empty() || ec != std::errc() || end != last)
        throw ServeError("bad tcp port '" + port + "' in " + address);
    return a;
}

socklen_t
toSockaddr(const ServeAddress& a, sockaddr_storage& out)
{
    out = {};
    if (a.is_unix) {
        auto& un = reinterpret_cast<sockaddr_un&>(out);
        un.sun_family = AF_UNIX;
        if (a.unix_path.size() >= sizeof(un.sun_path))
            throw ServeError("unix socket path too long: " + a.unix_path);
        a.unix_path.copy(un.sun_path, a.unix_path.size());
        return sizeof(sockaddr_un);
    }
    auto& in = reinterpret_cast<sockaddr_in&>(out);
    in.sin_family = AF_INET;
    in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    in.sin_port = htons(a.tcp_port);
    return sizeof(sockaddr_in);
}

namespace {

/** The frame type byte, then @p m's listed fields. */
template <class M>
std::vector<std::uint8_t>
encodeAs(FrameType type, const M& m)
{
    snap::Writer w;
    w.u8(static_cast<std::uint8_t>(type));
    snap::save(m, w);
    return w.buffer();
}

/**
 * Check the type byte, read the body with @p read, require the exact
 * end. A malformed payload surfaces as a ServeWireError naming the
 * frame (@p frame, e.g. "hello frame"), never as a bare snap error.
 */
template <class Read>
auto
decode(const std::vector<std::uint8_t>& payload, FrameType type,
       const char* frame, Read read)
{
    if (frameType(payload) != type)
        throw ServeWireError("serve wire: unexpected frame type " +
                             std::to_string(payload[0]));
    try {
        snap::Reader r(payload.data(), payload.size(), frame);
        r.u8(); // type
        auto m = read(r);
        if (!r.atEnd())
            throw ServeWireError(std::string("serve wire: ") + frame +
                                 " has " + std::to_string(r.remaining()) +
                                 " trailing bytes");
        return m;
    } catch (const snap::SnapshotError& e) {
        throw ServeWireError(std::string("serve wire: ") + e.what());
    }
}

/** A body that is one field list. */
template <class M>
M
fieldsOf(snap::Reader& r)
{
    M m;
    snap::load(m, r);
    return m;
}

} // namespace

void
Preamble::afterRestore() const
{
    if (schema != kServeSchemaName)
        throw ServeWireError("serve wire: schema mismatch: got '" + schema +
                             "', want '" + kServeSchemaName + "'");
    if (version != kServeVersion)
        throw ServeWireError("serve wire: unsupported version " +
                             std::to_string(version));
}

// ------------------------------------------------------------- encode

std::vector<std::uint8_t>
encodeHello(const HelloMsg& m)
{
    return encodeAs(FrameType::kHello, m);
}

std::vector<std::uint8_t>
encodeHelloAck(const HelloAckMsg& m)
{
    return encodeAs(FrameType::kHelloAck, m);
}

std::vector<std::uint8_t>
encodeAccess(const wl::TraceRecord* records, std::size_t n)
{
    snap::Writer w;
    w.u8(static_cast<std::uint8_t>(FrameType::kAccess));
    wl::encodeRecords(w, records, n);
    return w.buffer();
}

std::vector<std::uint8_t>
encodeWindow(const WindowMsg& m)
{
    return encodeAs(FrameType::kWindow, m);
}

std::vector<std::uint8_t>
encodeRunEnd(const RunEndMsg& m)
{
    return encodeAs(FrameType::kRunEnd, m);
}

std::vector<std::uint8_t>
encodeDetach()
{
    return {static_cast<std::uint8_t>(FrameType::kDetach)};
}

std::vector<std::uint8_t>
encodeDetachAck(const DetachAckMsg& m)
{
    return encodeAs(FrameType::kDetachAck, m);
}

std::vector<std::uint8_t>
encodeStats()
{
    return {static_cast<std::uint8_t>(FrameType::kStats)};
}

std::vector<std::uint8_t>
encodeStatsAck(const std::string& json)
{
    return encodeAs(FrameType::kStatsAck, json);
}

std::vector<std::uint8_t>
encodeError(std::uint32_t kind, const std::string& message)
{
    return encodeAs(FrameType::kError, ErrorMsg{kind, message});
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
    HelloMsg m = decode(payload, FrameType::kHello, "hello frame",
                        fieldsOf<HelloMsg>);
    if (m.tenant.empty())
        throw ServeWireError("serve wire: hello with empty tenant id");
    if (m.window_instrs == 0)
        throw ServeWireError("serve wire: hello with window_instrs=0");
    return m;
}

HelloAckMsg
decodeHelloAck(const std::vector<std::uint8_t>& payload)
{
    return decode(payload, FrameType::kHelloAck, "hello-ack frame",
                  fieldsOf<HelloAckMsg>);
}

std::vector<wl::TraceRecord>
decodeAccess(const std::vector<std::uint8_t>& payload)
{
    return decode(payload, FrameType::kAccess, "access frame",
                  wl::decodeRecords);
}

WindowMsg
decodeWindow(const std::vector<std::uint8_t>& payload)
{
    return decode(payload, FrameType::kWindow, "window frame",
                  fieldsOf<WindowMsg>);
}

RunEndMsg
decodeRunEnd(const std::vector<std::uint8_t>& payload)
{
    return decode(payload, FrameType::kRunEnd, "run-end frame",
                  fieldsOf<RunEndMsg>);
}

DetachAckMsg
decodeDetachAck(const std::vector<std::uint8_t>& payload)
{
    return decode(payload, FrameType::kDetachAck, "detach-ack frame",
                  fieldsOf<DetachAckMsg>);
}

std::string
decodeStatsAck(const std::vector<std::uint8_t>& payload)
{
    return decode(payload, FrameType::kStatsAck, "stats-ack frame",
                  fieldsOf<std::string>);
}

ErrorMsg
decodeError(const std::vector<std::uint8_t>& payload)
{
    return decode(payload, FrameType::kError, "error frame",
                  fieldsOf<ErrorMsg>);
}

} // namespace pythia::service
