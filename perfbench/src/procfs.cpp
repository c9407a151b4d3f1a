#include "procfs.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

namespace {

/** VmHWM of @p pid in kB; 0 when the process is gone. */
long
hwmKb(const std::string& pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    return 0;
}

/** Direct children of this process (of every thread). */
std::vector<std::string>
children()
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        std::ifstream in(task.path() / "children");
        std::string pid;
        while (in >> pid)
            out.push_back(pid);
    }
    return out;
}

} // namespace

RssWatcher::RssWatcher() : thread_([this] {
    try {
        while (!stop_.load()) {
            sample();
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(mu_);
        error_ = e.what();
    }
})
{
}

RssWatcher::~RssWatcher()
{
    stop();
}

void
RssWatcher::stop()
{
    stop_.store(true);
    if (thread_.joinable())
        thread_.join();
}

void
RssWatcher::sample()
{
    long kb = hwmKb(std::to_string(::getpid()));
    for (const std::string& pid : children())
        kb += hwmKb(pid);
    std::lock_guard<std::mutex> lk(mu_);
    peak_kb_ = std::max(peak_kb_, kb);
}

double
RssWatcher::peakMb()
{
    sample();
    std::lock_guard<std::mutex> lk(mu_);
    if (!error_.empty())
        throw std::runtime_error("peak RSS sampling failed: " + error_);
    return static_cast<double>(peak_kb_) / 1024.0;
}

double
selfCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

} // namespace perfbench
