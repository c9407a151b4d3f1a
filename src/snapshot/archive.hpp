/**
 * @file
 * One field list per stateful component and per value that crosses a
 * process or disk boundary (DESIGN.md §9.1).
 *
 * A type lists its fields once, in a public static member
 *
 *     template <class Self, class Ar>
 *     static void fields(Self& self, Ar& ar);
 *
 * instantiated with Self = const T to save or size and Self = T to load
 * or copy, so the const and mutable sides share one list (the archive
 * idiom of cereal and Boost.Serialization). save(), load(), copy() and
 * footprint() run that list through an Archive. Machine components
 * (caches, cores, prefetchers, the System) and the values that travel
 * between processes or to disk (ExperimentSpec, RunResult,
 * WindowSample, Runner::Outcome, the session state, every
 * pythia-serve-v1 message, the journal entry) use the same verbs:
 *
 *     ar(x, ...)               values: bools, integers, enums, floats,
 *                              fixed arrays of values, std::string (u64
 *                              length + bytes), std::vector of scalars
 *                              or strings (u64 count + elements; a load
 *                              bounds the count by the bytes left before
 *                              it allocates), nested types with their
 *                              own fields(), and opaque codecs (any type
 *                              with saveState/loadState, i.e. a
 *                              prefetcher behind a PrefetcherApi)
 *     ar.table(what, v)        vector whose size the configuration fixes:
 *                              a u64 count, then the elements
 *     ar.each(v)               the elements alone (an earlier expect()
 *                              pinned the shape)
 *     ar.list(what, v, max)    variable-length vector, at most max long
 *     ar.expect(what, value)   configuration value stamped into the image
 *     ar.map(m)                string-keyed statistics map
 *     ar.derived(v, ...)       host vectors the restore hook rebuilds:
 *                              sized, never stored or copied
 *     ar.section(name, x)      named section around a field or a lambda
 *     ar.custom(self, s, l)    hand-written codec member functions, for a
 *                              form that hides the in-memory layout
 *
 * Work derived from the listed state lives in one optional hook,
 * `void afterRestore()`, which runs after both a load and a copy.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "snapshot/codec.hpp"

namespace pythia::snap {

namespace detail {

/** Archive type used only to probe for a fields() member. */
struct Probe
{
};

template <class T>
concept Component = requires { &T::template fields<T, Probe>; };

template <class T>
concept Codec = requires(const T& c, T& m, Writer& w, Reader& r) {
    c.saveState(w);
    m.loadState(r);
};

template <class T>
inline constexpr bool kFixedArray = std::is_array_v<T>;
template <class T, std::size_t N>
inline constexpr bool kFixedArray<std::array<T, N>> = true;

template <class T>
inline constexpr bool kVector = false;
template <class T, class A>
inline constexpr bool kVector<std::vector<T, A>> = true;

/** Fewest bytes one encoded element takes, which bounds a stored count
 *  by the bytes left: a string is at least its u64 length. */
template <class T>
constexpr std::size_t
minBytes()
{
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T> ||
                      std::is_same_v<T, std::string>,
                  "a variable-length vector holds scalars or strings");
    return std::is_same_v<T, std::string> ? 8 : sizeof(T);
}

template <class T>
void
afterRestore(T& x)
{
    if constexpr (requires { x.afterRestore(); })
        x.afterRestore();
}

} // namespace detail

/** What an Archive does with the fields it visits. */
enum class Op
{
    kSave, ///< append them to a Writer
    kLoad, ///< read them back, checking every count and stamp against
           ///< this configuration (CorruptError naming the table)
    kCopy, ///< assign them from a second component of the same type
           ///< (std::invalid_argument on a configuration mismatch)
    kSize, ///< count their host bytes
};

/**
 * Runs one field list for one Op.
 *
 * kCopy runs fields() twice: over the source, recording where each
 * field lives, then over the destination, assigning from the recorded
 * field of the same position and type. Vectors copy whole (the bulk
 * copies that keep a cache fork cheap), nested components recurse, and
 * opaque codecs and custom forms go through an in-memory save and load.
 *
 * kSize counts sizeof each value, size * sizeof each vector element,
 * key plus value per map entry and the encoded size of opaque codecs
 * and custom forms; configuration stamps count nothing.
 */
template <Op kOp>
class Archive
{
  public:
    Archive() = default;
    explicit Archive(Writer& w) : w_(&w) {}
    explicit Archive(Reader& r) : r_(&r) {}

    template <class... T>
    void operator()(T&... x)
    {
        (value(x), ...);
    }

    template <class V>
    void table(const char* what, V& v)
    {
        if constexpr (kOp == Op::kSave)
            w_->u64(v.size());
        if constexpr (kOp == Op::kLoad)
            if (const std::uint64_t n = r_->u64(); n != v.size())
                throw r_->corrupt(std::string(what) + " has " +
                                  std::to_string(n) +
                                  " entries but this configuration has " +
                                  std::to_string(v.size()));
        if constexpr (kOp == Op::kCopy)
            if (assigning_ && source(v, false).size() != v.size())
                throw std::invalid_argument(
                    std::string("copy: ") + what + " has " +
                    std::to_string(source(v, false).size()) +
                    " entries, this one " + std::to_string(v.size()));
        each(v);
    }

    template <class V>
    void each(V& v)
    {
        if constexpr (kOp == Op::kCopy)
            assigning_ ? void(v = source(v)) : record(v);
        else if constexpr (kOp == Op::kSize)
            bytes_ += v.size() * sizeof(v[0]);
        else
            for (auto& x : v)
                value(x);
    }

    template <class V>
    void list(const char* what, V& v, std::size_t max)
    {
        if constexpr (kOp == Op::kSave)
            w_->u64(v.size());
        if constexpr (kOp == Op::kLoad) {
            const std::uint64_t n = r_->u64();
            if (n > max)
                throw r_->corrupt(std::string(what) + " holds " +
                                  std::to_string(n) +
                                  " entries, above its bound " +
                                  std::to_string(max));
            v.resize(static_cast<std::size_t>(n));
        }
        each(v);
    }

    template <class T>
    void expect(const char* what, T configured)
    {
        T stored = configured;
        if constexpr (kOp == Op::kSave)
            value(stored);
        if constexpr (kOp == Op::kLoad) {
            value(stored);
            if (stored != configured)
                throw r_->corrupt(std::string(what) + " " +
                                  std::to_string(stored) +
                                  " does not match this configuration (" +
                                  std::to_string(configured) + ")");
        }
        if constexpr (kOp == Op::kCopy) {
            if (!assigning_)
                return slots_.push_back({nullptr, &typeid(T), configured});
            if (const std::uint64_t s = next(typeid(T)).stamp; s != configured)
                throw std::invalid_argument(
                    std::string("copy: ") + what + " " + std::to_string(s) +
                    " does not match " + std::to_string(configured));
        }
    }

    /** Load and copy zero every value in place, then assign: existing
     *  nodes are reused, so pointers into the map (the counter slots
     *  hot paths bump) stay valid. */
    template <class M>
    void map(M& m)
    {
        if constexpr (kOp == Op::kSave) {
            w_->u64(m.size());
            for (const auto& [k, v] : m) {
                w_->str(k);
                value(v);
            }
        } else if constexpr (kOp == Op::kSize) {
            for (const auto& [k, v] : m)
                bytes_ += k.size() + sizeof(v);
        } else if (kOp == Op::kCopy && !assigning_) {
            record(m);
        } else {
            for (auto& [k, v] : m)
                v = {};
            if constexpr (kOp == Op::kCopy)
                for (const auto& [k, v] : source(m))
                    m[k] = v;
            else
                for (std::uint64_t n = r_->u64(); n > 0; --n)
                    value(m[r_->str()]);
        }
    }

    template <class... V>
    void derived(V&... v)
    {
        if constexpr (kOp == Op::kSize)
            (each(v), ...);
    }

    template <class X>
    void section(const std::string& name, X&& x)
    {
        if constexpr (kOp == Op::kSave)
            w_->beginSection(name);
        if constexpr (kOp == Op::kLoad)
            r_->enterSection(name);
        if constexpr (std::is_invocable_v<X&>)
            x();
        else
            value(x);
        if constexpr (kOp == Op::kSave)
            w_->endSection();
        if constexpr (kOp == Op::kLoad)
            r_->leaveSection();
    }

    template <class Self, class SaveFn, class LoadFn>
    void custom(Self& self, SaveFn save, LoadFn load)
    {
        if constexpr (kOp == Op::kSave)
            (self.*save)(*w_);
        else if constexpr (kOp == Op::kLoad)
            (self.*load)(*r_);
        else if constexpr (kOp == Op::kSize)
            bytes_ += encoded(self, save).size();
        else if (!assigning_)
            record(self);
        else
            viaCodec(source(self), self, save, load);
    }

    template <class T>
    void value(T& x)
    {
        using U = std::remove_const_t<T>;
        if constexpr (kOp == Op::kCopy) {
            if (!assigning_)
                return record(x);
            const U& src = source(x);
            if constexpr (detail::Component<U>)
                copy(x, src);
            else if constexpr (detail::Codec<U>)
                viaCodec(src, x, &U::saveState, &U::loadState);
            else if constexpr (detail::kFixedArray<U>)
                std::copy(std::begin(src), std::end(src), std::begin(x));
            else
                x = src;
        } else if constexpr (detail::Component<U>) {
            U::fields(x, *this);
            if constexpr (kOp == Op::kLoad)
                detail::afterRestore(x);
        } else if constexpr (detail::Codec<U>) {
            if constexpr (kOp == Op::kSave)
                x.saveState(*w_);
            else if constexpr (kOp == Op::kLoad)
                x.loadState(*r_);
            else
                bytes_ += encoded(x, &U::saveState).size();
        } else if constexpr (detail::kVector<U>) {
            if constexpr (kOp == Op::kSave)
                w_->u64(x.size());
            if constexpr (kOp == Op::kLoad)
                x.resize(r_->count(
                    detail::minBytes<typename U::value_type>()));
            for (auto& e : x)
                value(e);
        } else if constexpr (std::is_same_v<U, std::string>) {
            if constexpr (kOp == Op::kSave)
                w_->str(x);
            else if constexpr (kOp == Op::kLoad)
                x = r_->str();
            else
                bytes_ += x.size();
        } else if constexpr (kOp == Op::kSize) {
            bytes_ += sizeof(U);
        } else if constexpr (detail::kFixedArray<U>) {
            for (auto& e : x)
                value(e);
        } else if constexpr (kOp == Op::kSave) {
            put(x);
        } else {
            get(x);
        }
    }

    /** kCopy: member assignment of the listed fields, then the restore
     *  hook. The recording pass runs fields() over a non-const view of
     *  @p src but only takes addresses. */
    template <class T>
    static void copy(T& dst, const T& src)
    {
        Archive from;
        T::fields(const_cast<T&>(src), from);
        Archive to;
        to.slots_ = std::move(from.slots_);
        to.assigning_ = true;
        T::fields(dst, to);
        if (to.next_ != to.slots_.size())
            throw std::invalid_argument("copy: state layouts differ");
        detail::afterRestore(dst);
    }

    std::size_t bytes() const { return bytes_; }

  private:
    struct Slot
    {
        const void* field;
        const std::type_info* type;
        std::uint64_t stamp; ///< expect() value
    };

    template <class T>
    void put(T x)
    {
        if constexpr (std::is_enum_v<T>)
            put(static_cast<std::underlying_type_t<T>>(x));
        else if constexpr (std::is_same_v<T, bool>)
            w_->boolean(x);
        else if constexpr (std::is_same_v<T, float>)
            w_->f32(x);
        else if constexpr (std::is_same_v<T, double>)
            w_->f64(x);
        else if constexpr (sizeof(T) == 1)
            w_->u8(static_cast<std::uint8_t>(x));
        else if constexpr (sizeof(T) == 2)
            w_->u16(static_cast<std::uint16_t>(x));
        else if constexpr (sizeof(T) == 4)
            w_->u32(static_cast<std::uint32_t>(x));
        else
            w_->u64(static_cast<std::uint64_t>(x));
    }

    template <class T>
    void get(T& x)
    {
        if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> u{};
            get(u);
            x = static_cast<T>(u);
        } else if constexpr (std::is_same_v<T, bool>)
            x = r_->boolean();
        else if constexpr (std::is_same_v<T, float>)
            x = r_->f32();
        else if constexpr (std::is_same_v<T, double>)
            x = r_->f64();
        else if constexpr (sizeof(T) == 1)
            x = static_cast<T>(r_->u8());
        else if constexpr (sizeof(T) == 2)
            x = static_cast<T>(r_->u16());
        else if constexpr (sizeof(T) == 4)
            x = static_cast<T>(r_->u32());
        else
            x = static_cast<T>(r_->u64());
    }

    template <class T>
    void record(T& x)
    {
        slots_.push_back({&x, &typeid(std::remove_const_t<T>), 0});
    }

    const Slot& next(const std::type_info& type)
    {
        if (next_ == slots_.size() || *slots_[next_].type != type)
            throw std::invalid_argument("copy: state layouts differ");
        return slots_[next_++];
    }

    /** The source field matching @p x; @p consume false peeks. */
    template <class T>
    const std::remove_const_t<T>& source(T&, bool consume = true)
    {
        using U = std::remove_const_t<T>;
        const Slot& s = next(typeid(U));
        if (!consume)
            --next_;
        return *static_cast<const U*>(s.field);
    }

    template <class T, class SaveFn>
    static std::vector<std::uint8_t> encoded(const T& x, SaveFn save)
    {
        Writer w;
        (x.*save)(w);
        return w.buffer();
    }

    /** Copy through an in-memory save and load that must consume every
     *  byte. */
    template <class T, class SaveFn, class LoadFn>
    static void viaCodec(const T& src, T& dst, SaveFn save, LoadFn load)
    {
        const std::vector<std::uint8_t> buf = encoded(src, save);
        Reader r(buf.data(), buf.size());
        (dst.*load)(r);
        if (!r.atEnd())
            throw std::invalid_argument(
                "copy: " + std::to_string(r.remaining()) +
                " bytes of serialized state left unread");
    }

    Writer* w_ = nullptr;
    Reader* r_ = nullptr;
    std::size_t bytes_ = 0;
    std::vector<Slot> slots_;
    std::size_t next_ = 0;
    bool assigning_ = false;
};

/** Append @p x's listed state to @p w. */
template <class T>
void
save(const T& x, Writer& w)
{
    Archive<Op::kSave>(w).value(x);
}

/** Restore a save() image into @p x, then run its restore hook.
 *  @throws CorruptError on any mismatch with this configuration. */
template <class T>
void
load(T& x, Reader& r)
{
    Archive<Op::kLoad>(r).value(x);
}

/** Make @p dst's listed state equal @p src's, then run the restore
 *  hook. @throws std::invalid_argument on a configuration mismatch. */
template <class T>
void
copy(T& dst, const T& src)
{
    Archive<Op::kCopy>::copy(dst, src);
}

/** Host bytes held by @p x's listed state. */
template <class T>
std::size_t
footprint(const T& x)
{
    Archive<Op::kSize> ar;
    ar.value(x);
    return ar.bytes();
}

} // namespace pythia::snap
