/**
 * @file
 * The framed transport shared by the shard service (DESIGN.md §11) and
 * the pythia_serve daemon (DESIGN.md §12): one frame codec, blocking
 * and non-blocking frame I/O, the vectored outbox and the epoll
 * readiness loop.
 *
 * Frame = u32 little-endian payload length + payload. A payload is
 * never empty (every protocol opens it with a type byte) and never
 * larger than kMaxFramePayload; a length outside 1..kMaxFramePayload
 * is hostile or corrupt input and raises FrameError before anything
 * is allocated. The journal (pythia-journal-v1) frames its records
 * with the same header.
 *
 *  - writeFrame()/readFrame(): blocking, EINTR-safe frame I/O (the
 *    shard worker, the coordinator's job writes, tests).
 *  - FrameReader: accumulator over a non-blocking fd. fill() drains
 *    what the kernel holds, next() pops whole frames; the consumed
 *    prefix is compacted once per fill(), not once per frame.
 *  - OutboxRing + flushOutbox(): outbound frames staged as (header,
 *    payload) iovec pairs and flushed with one sendmsg() per batch;
 *    partial writes resume from a byte offset, and bytes() is exact,
 *    which is what the daemon's max_outbox_bytes backpressure uses.
 *  - EventLoop: level-triggered epoll over a persistent interest set.
 *
 * Linux only, like the rest of the library (pipe2, fdatasync).
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

struct iovec; // <sys/uio.h>

namespace pythia::transport {

/** Framing violation: bad length prefix or a frame cut short. I/O
 *  failures (a dead peer, EPIPE) are std::system_error instead. */
class FrameError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

using Payload = std::vector<std::uint8_t>;

/** Hard ceiling on one frame's payload. Every payload on either wire
 *  is kilobytes; anything near this is corruption or an attack. */
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

inline constexpr std::size_t kFrameHeaderBytes = 4;

using FrameHeader = std::array<std::uint8_t, kFrameHeaderBytes>;

/** Header of an @p n-byte payload. @throws FrameError unless
 *  1 <= n <= kMaxFramePayload. */
FrameHeader encodeFrameHeader(std::size_t n);

/** Payload length carried by the header at @p p.
 *  @throws FrameError when it is 0 or above kMaxFramePayload. */
std::uint32_t decodeFrameHeader(const std::uint8_t* p);

/** write() all @p n bytes to @p fd, retrying EINTR.
 *  @throws std::system_error on a failed write. */
void writeAll(int fd, const void* data, std::size_t n);

/** Write one frame to @p fd (blocking). @throws FrameError on a bad
 *  payload size, std::system_error on a failed write. */
void writeFrame(int fd, const Payload& payload);

/** Read one frame from @p fd (blocking). nullopt on clean EOF at a
 *  frame boundary. @throws FrameError on a bad length or truncation,
 *  std::system_error on a failed read. */
std::optional<Payload> readFrame(int fd);

/** Add O_NONBLOCK to @p fd's status flags (best effort). */
void setNonBlocking(int fd);

/** Add FD_CLOEXEC to @p fd's descriptor flags (best effort). */
void setCloexec(int fd);

/** Frame accumulator over a non-blocking fd (socket or pipe). */
class FrameReader
{
  public:
    /** Compact the consumed prefix, then read() what @p fd holds.
     *  @return false at EOF or on a read error (errno kept). */
    bool fill(int fd);

    /** Pop the next whole frame; nullopt while it is still partial.
     *  @throws FrameError on a bad length prefix. */
    std::optional<Payload> next();

    /** Bytes read but not yet popped as frames. */
    std::size_t buffered() const { return buf_.size() - head_; }

    void clear()
    {
        buf_.clear();
        head_ = 0;
    }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t head_ = 0; ///< start of the first unpopped byte
};

/**
 * Per-connection outbound frame queue, staged for vectored writes.
 *
 * push() stores a payload with its header as one slot; gather()
 * exposes up to max_iov iovecs (header, payload, header, ...) from the
 * current partial-write offset; consume() advances past n written
 * bytes. bytes() counts every unsent byte, headers included.
 */
class OutboxRing
{
  public:
    /** Stage one frame. @throws FrameError on a bad payload size. */
    void push(Payload payload);

    /** Fill @p iov with up to @p max_iov segments of unsent bytes, in
     *  order, the first starting at the partial-write offset.
     *  @return segments filled (0 when empty). */
    std::size_t gather(struct iovec* iov, std::size_t max_iov) const;

    /** Drop @p n bytes from the front (the sendmsg return). */
    void consume(std::size_t n);

    bool empty() const { return slots_.empty(); }

    /** Unsent bytes, headers included. */
    std::size_t bytes() const { return bytes_; }

    /** Frames not yet fully written. */
    std::size_t frames() const { return slots_.size(); }

    void clear()
    {
        slots_.clear();
        head_off_ = 0;
        bytes_ = 0;
    }

  private:
    struct Slot
    {
        FrameHeader header;
        Payload payload;
    };

    std::deque<Slot> slots_;
    std::size_t head_off_ = 0; ///< bytes of slots_.front() already sent
    std::size_t bytes_ = 0;    ///< total unsent (headers + payloads)
};

/** Outcome of one flush attempt against a socket. */
enum class FlushResult
{
    kDrained, ///< ring is now empty
    kBlocked, ///< kernel buffer full (EAGAIN / partial write)
    kDead,    ///< peer gone (EPIPE/ECONNRESET/...) — close the fd
};

/** Write as much of @p ring to socket @p fd as the kernel accepts, in
 *  sendmsg() batches. Never blocks on a non-blocking socket and never
 *  raises SIGPIPE. */
FlushResult flushOutbox(int fd, OutboxRing& ring);

/** One ready fd, as reported by EventLoop::wait(). */
struct IoEvent
{
    int fd = -1;
    void* ud = nullptr; ///< user data from add()
    bool in = false;    ///< readable, hangup included (read to EOF)
    bool out = false;   ///< writable
    bool err = false;   ///< error condition on the fd
};

/**
 * Level-triggered epoll over a persistent interest set: "readable"
 * fires until the buffer empties, "writable" until the outbox drains.
 * Not thread-safe; the owning thread is the only caller.
 */
class EventLoop
{
  public:
    /** @throws std::system_error when epoll_create1 fails. */
    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /** Register @p fd; @p ud comes back verbatim in its IoEvents.
     *  @throws std::system_error from epoll_ctl. */
    void add(int fd, void* ud, bool want_in, bool want_out);

    /** Change interest for a registered fd. */
    void mod(int fd, bool want_in, bool want_out);

    /** Remove @p fd from the interest set (before closing it). */
    void del(int fd);

    /** Block up to @p timeout_ms (-1 = forever) and replace @p out
     *  with one IoEvent per ready fd. @return ready fds (0 on timeout
     *  or EINTR). */
    std::size_t wait(std::vector<IoEvent>& out, int timeout_ms);

  private:
    int ep_ = -1;
    std::unordered_map<int, void*> uds_;
};

} // namespace pythia::transport
