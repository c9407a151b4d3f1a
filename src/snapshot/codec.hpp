/**
 * @file
 * Binary codec substrate of the pythia-snap-v1 snapshot format: a
 * little-endian fixed-width Writer/Reader pair with named, length-
 * prefixed sections, plus the typed error taxonomy every snapshot
 * consumer matches on.
 *
 * Design rules (DESIGN.md §9):
 *  - Fixed-width little-endian integers only; floating-point values
 *    travel as their IEEE-754 bit patterns, so a round trip is
 *    bit-exact on every supported platform.
 *  - Every component writes into its own named section whose byte
 *    length is recorded in the stream. Readers must consume a section
 *    exactly — a component that reads too little or too much corrupts
 *    silently otherwise, and leaveSection() turns that bug into a
 *    loud CorruptError.
 *  - All structural violations throw; no snapshot API returns a
 *    half-restored object.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace pythia::snap {

// ------------------------------------------------------------- errors

/** Base class of every snapshot failure. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** File could not be read or written. */
class IoError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** Structurally invalid snapshot: bad magic, truncation, checksum
 *  mismatch, section under/over-consumption, impossible sizes. */
class CorruptError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** Snapshot was written by an unsupported format version. */
class VersionError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** Snapshot belongs to a different experiment configuration. */
class FingerprintError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

// ----------------------------------------------------------- checksum

/** FNV-1a 64-bit offset basis. */
inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

/** FNV-1a 64-bit over @p n bytes, continuing from @p seed. */
inline std::uint64_t
fnv1a(const void* data, std::size_t n, std::uint64_t seed = kFnvOffset)
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

/** FNV-1a 64-bit of a string (fingerprint hashing, file names). */
inline std::uint64_t
fnv1a(const std::string& s, std::uint64_t seed = kFnvOffset)
{
    return fnv1a(s.data(), s.size(), seed);
}

// ------------------------------------------------------------- Writer

/**
 * Append-only byte-buffer writer. Integers are emitted little-endian
 * at fixed width; strings carry a u64 length prefix.
 * Sections nest: beginSection(name) writes the name and reserves a
 * u64 length slot that endSection() patches.
 */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }

    void u16(std::uint16_t v) { putLe(v, 2); }
    void u32(std::uint32_t v) { putLe(v, 4); }
    void u64(std::uint64_t v) { putLe(v, 8); }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void f32(float v)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u32(bits);
    }

    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void bytes(const void* data, std::size_t n)
    {
        const auto* p = static_cast<const std::uint8_t*>(data);
        for (std::size_t i = 0; i < n; ++i)
            buf_.push_back(p[i]);
    }

    void str(const std::string& s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Open a named section; must be balanced by endSection(). */
    void beginSection(const std::string& name)
    {
        str(name);
        open_.push_back(buf_.size());
        u64(0); // length placeholder, patched by endSection()
    }

    /** Close the innermost open section, patching its length. */
    void endSection()
    {
        if (open_.empty())
            throw std::logic_error("snap::Writer: endSection underflow");
        const std::size_t at = open_.back();
        open_.pop_back();
        const std::uint64_t len =
            static_cast<std::uint64_t>(buf_.size() - at - 8);
        for (int i = 0; i < 8; ++i)
            buf_[at + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(len >> (8 * i));
    }

    /** The accumulated bytes; sections must all be closed. */
    const std::vector<std::uint8_t>& buffer() const
    {
        if (!open_.empty())
            throw std::logic_error("snap::Writer: unclosed section");
        return buf_;
    }

    std::size_t size() const { return buf_.size(); }

  private:
    void putLe(std::uint64_t v, int width)
    {
        for (int i = 0; i < width; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
    std::vector<std::size_t> open_;
};

// ------------------------------------------------------------- Reader

/**
 * Bounds-checked reader over a byte span. Any read past the end of
 * the buffer — or past the end of the innermost entered section —
 * throws CorruptError; leaveSection() additionally requires the
 * section to be consumed exactly. The same codec decodes snapshots,
 * trace files and wire frames, so its errors name the @p format the
 * caller gives ("<format> corrupt: …"); @p format must outlive the
 * Reader (pass a string literal).
 */
class Reader
{
  public:
    Reader(const std::uint8_t* data, std::size_t size,
           const char* format = "snapshot")
        : data_(data), size_(size), format_(format)
    {
    }

    std::uint8_t u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t u16() { return static_cast<std::uint16_t>(getLe(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(getLe(4)); }
    std::uint64_t u64() { return getLe(8); }

    bool boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw corrupt("invalid bool encoding");
        return v != 0;
    }

    float f32()
    {
        const std::uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char*>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /**
     * Read a u64 element count, bounded by the bytes left at @p width
     * bytes per element (the least one element encodes to). The bound
     * is checked before any multiply or allocation: a hostile count
     * such as 2^62 would wrap n * width to a small value, or ask
     * reserve() for more than max_size().
     */
    std::size_t count(std::size_t width)
    {
        const std::uint64_t n = u64();
        if (n > remaining() / width)
            throw corrupt("truncated (wanted " + std::to_string(n) +
                          " elements of " + std::to_string(width) +
                          " bytes, " + std::to_string(remaining()) +
                          " bytes available)");
        return static_cast<std::size_t>(n);
    }

    /**
     * Enter the next section, validating its name against @p expected.
     * Reads inside the section are bounded by its recorded length.
     */
    void enterSection(const std::string& expected)
    {
        const std::string name = str();
        if (name != expected)
            throw corrupt("expected section '" + expected +
                          "', found '" + name + "'");
        const std::uint64_t len = u64();
        need(len);
        section_end_.push_back(pos_ + static_cast<std::size_t>(len));
    }

    /** Leave the innermost section; it must be consumed exactly. */
    void leaveSection()
    {
        if (section_end_.empty())
            throw std::logic_error("snap::Reader: leaveSection underflow");
        const std::size_t end = section_end_.back();
        section_end_.pop_back();
        if (pos_ != end)
            throw corrupt("section length mismatch (" +
                          std::to_string(end - pos_) +
                          " bytes unconsumed)");
    }

    /** Advance @p n bytes without decoding (tools walking sections). */
    void skip(std::uint64_t n)
    {
        need(n);
        pos_ += static_cast<std::size_t>(n);
    }

    /** Bytes left in the current section (or the whole buffer). */
    std::size_t remaining() const
    {
        const std::size_t end =
            section_end_.empty() ? size_ : section_end_.back();
        return end - pos_;
    }

    bool atEnd() const { return remaining() == 0; }

    std::size_t position() const { return pos_; }

    /** The error a structural violation throws, naming the format;
     *  decoders layered on the Reader use it for their own checks. */
    CorruptError corrupt(const std::string& what) const
    {
        return CorruptError(std::string(format_) + " corrupt: " + what);
    }

  private:
    void need(std::uint64_t n) const
    {
        const std::size_t end =
            section_end_.empty() ? size_ : section_end_.back();
        if (n > end - pos_)
            throw corrupt("truncated (wanted " + std::to_string(n) +
                          " bytes, " + std::to_string(end - pos_) +
                          " available)");
    }

    std::uint64_t getLe(int width)
    {
        need(static_cast<std::uint64_t>(width));
        std::uint64_t v = 0;
        for (int i = 0; i < width; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += static_cast<std::size_t>(width);
        return v;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    const char* format_;
    std::size_t pos_ = 0;
    std::vector<std::size_t> section_end_;
};

} // namespace pythia::snap
