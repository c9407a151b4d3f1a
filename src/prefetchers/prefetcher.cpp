#include "prefetchers/prefetcher.hpp"

#include <utility>

#include "common/hashing.hpp"

namespace pythia::pf {

PrefetcherBase::PrefetcherBase(std::string name, std::size_t storage_bytes)
    : name_(std::move(name)), storage_bytes_(storage_bytes)
{
}

bool
PrefetcherBase::emitWithinPage(Addr block, std::int32_t line_offset,
                               std::vector<PrefetchRequest>& out,
                               int fill_level)
{
    if (line_offset == 0)
        return false;
    if (!samePageAfterOffset(block, line_offset))
        return false;
    PrefetchRequest pr;
    pr.block = static_cast<Addr>(
        static_cast<std::int64_t>(block) + line_offset);
    pr.fill_level = fill_level;
    out.push_back(pr);
    return true;
}

PageTracker::PageTracker(std::size_t entries) : entries_(entries) {}

std::size_t
PageTracker::index(Addr page) const
{
    return static_cast<std::size_t>(mix64(page)) % entries_.size();
}

std::int32_t
PageTracker::recordAndDelta(Addr block)
{
    const Addr page = pageIdOfBlock(block);
    const auto offset =
        static_cast<std::int32_t>(block & (kBlocksPerPage - 1));
    Entry& e = entries_[index(page)];
    std::int32_t delta = 0;
    if (e.page == page && e.last_offset >= 0)
        delta = offset - e.last_offset;
    e.page = page;
    e.last_offset = offset;
    return delta;
}

std::int32_t
PageTracker::lastOffset(Addr block) const
{
    const Addr page = pageIdOfBlock(block);
    const Entry& e = entries_[index(page)];
    return e.page == page ? e.last_offset : -1;
}

} // namespace pythia::pf
