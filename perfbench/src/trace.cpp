#include "trace.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

/** Duration of @p p minus the merged coverage of @p kids (intervals
 *  clipped to @p p) minus its leaf time. */
std::int64_t
selfOf(const Span& p,
       std::vector<std::pair<std::int64_t, std::int64_t>>& kids)
{
    for (auto& [a, b] : kids) {
        a = std::max(a, p.start_ns);
        b = std::min(b, p.end_ns);
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;
    for (const auto& [a, b] : kids) {
        const std::int64_t from = std::max(a, reach);
        if (b > from) {
            covered += b - from;
            reach = b;
        }
    }
    return std::max<std::int64_t>(0,
                                  p.durationNs() - covered - p.leaf_ns);
}

} // namespace

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0)
            kids.at(static_cast<std::size_t>(s.parent))
                .emplace_back(s.start_ns, s.end_ns);
    std::vector<std::int64_t> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[i] = selfOf(spans[i], kids[i]);
    return out;
}

std::int64_t
Tracer::leafNow() const
{
    std::int64_t ns = 0;
    for (const LayerTimer* t : watched_)
        ns += t->ns;
    return ns;
}

int
Tracer::begin(std::string name, std::uint64_t id)
{
    Span s;
    s.name = std::move(name);
    s.id = id;
    s.parent = open_.empty() ? -1 : open_.back();
    leaf_at_begin_.push_back(leafNow());
    child_leaf_.push_back(0);
    s.start_ns = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int span)
{
    if (open_.empty() || open_.back() != span)
        throw std::logic_error("Tracer::end: span " +
                               std::to_string(span) +
                               " is not the innermost open span");
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.end_ns = nowNs();
    // Leaf time inside a child is also inside this span; subtracting
    // the child's interval already removes it, so only leaf time
    // outside every direct child counts here.
    s.leaf_total_ns = leafNow() - leaf_at_begin_.back();
    s.leaf_ns = std::max<std::int64_t>(
        0, s.leaf_total_ns - child_leaf_.back());
    child_leaf_.pop_back();
    if (!child_leaf_.empty())
        child_leaf_.back() += s.leaf_total_ns;
    open_.pop_back();
    leaf_at_begin_.pop_back();
}

void
Tracer::absorb(const Tracer& other)
{
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(std::move(s));
    }
}

std::int64_t
Tracer::selfNs(const std::string& name) const
{
    const std::vector<std::int64_t> self = selfTimesNs(spans_);
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            ns += self[i];
    return ns;
}

std::int64_t
Tracer::totalNs(const std::string& name) const
{
    std::int64_t ns = 0;
    for (const Span& s : spans_)
        if (s.name == name)
            ns += s.durationNs();
    return ns;
}

std::size_t
Tracer::count(const std::string& name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return s.name == name; }));
}

void
Tracer::writeJsonLines(std::ostream& os) const
{
    const std::vector<std::int64_t> self = selfTimesNs(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << "{\"name\": \"" << s.name << "\", \"start_ns\": "
           << s.start_ns << ", \"end_ns\": " << s.end_ns
           << ", \"parent\": " << s.parent << ", \"id\": " << s.id
           << ", \"leaf_ns\": " << s.leaf_ns
           << ", \"self_ns\": " << self[i] << "}\n";
    }
}

} // namespace perfbench
