/**
 * @file
 * pythia_serve — the prefetch-as-a-service daemon (DESIGN.md §12).
 *
 * Accepts concurrent client connections on a Unix or loopback-TCP
 * socket, speaks pythia-serve-v1, and runs each client's streamed
 * access trace through its own tenant SimSession, returning windowed
 * metrics live. SIGTERM/SIGINT drain gracefully: live sessions are
 * evicted to state_dir (reconnect resumes them bit-exactly) and the
 * process exits 0.
 *
 * Usage:
 *   pythia_serve [listen=unix:/tmp/pythia.sock | listen=tcp:0]
 *                [workers=2] [state_dir=serve_state]
 *                [inflight_records=1048576] [outbox_bytes=8388608]
 *                [idle_evict_ms=0] [warm_pool_bytes=67108864]
 *                [quiet=0]
 *
 * listen=tcp:<port> binds 127.0.0.1:<port> (0 picks an ephemeral port);
 * the daemon prints "listening on <address>" on stdout either way, so
 * scripts can scrape the bound address.
 *
 * Connections are served by one epoll loop (common/transport.hpp).
 * warm_pool_bytes= caps the shared pool of post-warmup machines —
 * identical specs warm once and every later open copies the pooled
 * machine's state bit-exactly; 0 disables the pool.
 */
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/config.hpp"
#include "service/server.hpp"

namespace {

pythia::service::ServeServer* g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->requestDrain(); // async-signal-safe
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace pythia;
    Config cli;
    try {
        cli.parseArgsStrict(argc, argv,
                            {"listen", "workers", "state_dir",
                             "inflight_records", "outbox_bytes",
                             "idle_evict_ms", "warm_pool_bytes",
                             "quiet"});
    } catch (const std::exception& e) {
        std::cerr << "pythia_serve: " << e.what() << "\n";
        return 2;
    }

    try {
        service::ServeOptions opt;
        const std::string listen =
            cli.getString("listen", "tcp:0");
        if (listen.rfind("unix:", 0) == 0) {
            opt.unix_path = listen.substr(5);
        } else if (listen.rfind("tcp:", 0) == 0) {
            // tcp:<port> or tcp:127.0.0.1:<port> — the daemon only
            // binds loopback, so any other host is an error, and a
            // malformed port must not silently atoi to garbage.
            std::string rest = listen.substr(4);
            const std::size_t colon = rest.rfind(':');
            if (colon != std::string::npos) {
                const std::string host = rest.substr(0, colon);
                if (host != "127.0.0.1" && host != "localhost") {
                    std::cerr << "pythia_serve: listen only binds "
                                 "loopback; got host '"
                              << host << "'\n";
                    return 2;
                }
                rest = rest.substr(colon + 1);
            }
            char* end = nullptr;
            const long port = std::strtol(rest.c_str(), &end, 10);
            if (rest.empty() || *end != '\0' || port < 0 ||
                port > 65535) {
                std::cerr << "pythia_serve: bad tcp port '" << rest
                          << "' in listen=" << listen << "\n";
                return 2;
            }
            opt.tcp_port = static_cast<std::uint16_t>(port);
        } else {
            std::cerr << "pythia_serve: listen must be unix:<path> or "
                         "tcp:<port>, got '"
                      << listen << "'\n";
            return 2;
        }
        opt.workers = static_cast<unsigned>(cli.getInt("workers", 2));
        opt.state_dir = cli.getString("state_dir", "serve_state");
        opt.max_inflight_records = static_cast<std::uint64_t>(
            cli.getInt("inflight_records", 1 << 20));
        opt.max_outbox_bytes = static_cast<std::size_t>(
            cli.getInt("outbox_bytes", 8 << 20));
        opt.idle_evict_ms = static_cast<std::uint64_t>(
            cli.getInt("idle_evict_ms", 0));
        // Warm pool on by default: 64 MiB holds dozens of pooled
        // warmups; pass warm_pool_bytes=0 to opt out.
        opt.warm_pool_bytes = static_cast<std::size_t>(
            cli.getInt("warm_pool_bytes", 64 << 20));
        if (!cli.getBool("quiet", false))
            opt.log = &std::cerr;

        service::ServeServer server(opt);
        server.start();
        g_server = &server;
        std::signal(SIGTERM, onSignal);
        std::signal(SIGINT, onSignal);

        std::cout << "listening on " << server.boundAddress()
                  << std::endl; // flush: scripts scrape this line

        const int rc = server.join();
        g_server = nullptr;
        const auto s = server.stats();
        std::cout << "served " << s.sessions_opened << " sessions ("
                  << s.sessions_resumed << " resumed, "
                  << s.sessions_evicted << " evicted, "
                  << s.runs_completed << " completed), "
                  << s.windows_emitted << " windows, "
                  << s.records_received << " records, warm pool "
                  << s.warm_hits << " hits / " << s.warm_misses
                  << " misses\n";
        return rc;
    } catch (const std::exception& e) {
        std::cerr << "pythia_serve: " << e.what() << "\n";
        return 1;
    }
}
