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
 * listen=tcp:<port> (or tcp:127.0.0.1:<port>, tcp:localhost:<port>)
 * binds 127.0.0.1:<port> (0 picks an ephemeral port);
 * the daemon prints "listening on <address>" on stdout either way, so
 * scripts can scrape the bound address.
 *
 * Connections are served by one epoll loop (common/transport.hpp).
 * warm_pool_bytes= caps the shared pool of post-warmup machines —
 * identical specs warm once and every later open copies the pooled
 * machine's state bit-exactly; 0 disables the pool.
 *
 * Arguments are strict key=value (common/params.hpp): an unknown key,
 * a malformed token or an ill-typed or out-of-range value prints one
 * line to stderr and exits 2 before any socket or thread exists.
 */
#include <csignal>
#include <iostream>
#include <string>

#include "common/params.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

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
    service::ServeOptions opt;
    try {
        const SpecParams cli = SpecParams::fromArgs(
            argc, argv,
            {"listen", "workers", "state_dir", "inflight_records",
             "outbox_bytes", "idle_evict_ms", "warm_pool_bytes",
             "quiet"});
        const service::ServeAddress listen =
            service::parseServeAddress(cli.getString("listen", "tcp:0"));
        opt.unix_path = listen.unix_path;
        opt.tcp_port = listen.tcp_port;
        opt.workers = cli.getU32("workers", 2, kMaxParallelism);
        opt.state_dir = cli.getString("state_dir", "serve_state");
        opt.max_inflight_records = cli.getU64("inflight_records", 1 << 20);
        opt.max_outbox_bytes = cli.getU64("outbox_bytes", 8 << 20);
        opt.idle_evict_ms = cli.getU64("idle_evict_ms", 0);
        // Warm pool on by default: 64 MiB holds dozens of pooled
        // warmups; pass warm_pool_bytes=0 to opt out.
        opt.warm_pool_bytes = cli.getU64("warm_pool_bytes", 64 << 20);
        if (!cli.getBool("quiet", false))
            opt.log = &std::cerr;
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const service::ServeError& e) {
        std::cerr << "pythia_serve: listen: " << e.what() << "\n";
        return 2;
    }

    try {
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
