#include "src/workloads/workloads.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "src/base/assert.h"
#include "src/base/strings.h"
#include "src/instr/readout.h"
#include "src/kern/fs.h"
#include "src/kern/user_env.h"
#include "src/profhw/smart_socket.h"

namespace hwprof {

Bytes PatternBytes(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + seed * 17 + 3) & 0xFF);
  }
  return out;
}

NetReceiveResult RunNetworkReceive(Testbed& tb, Nanoseconds duration,
                                   std::uint64_t stream_bytes, bool verify_payload) {
  Kernel& k = tb.kernel();
  auto sender = std::make_shared<SenderHost>(tb.machine(), k.wire(), kSenderNodeId,
                                             kSenderIpAddr);
  auto result = std::make_shared<NetReceiveResult>();
  auto cursor = std::make_shared<std::uint64_t>(0);  // stream offset verified so far

  k.Spawn(
      "netrecv",
      [result, cursor, verify_payload, &k](UserEnv& env) {
        const int fd = env.Socket(/*tcp=*/true);
        if (fd < 0 || !env.Bind(fd, 4000) || !env.Listen(fd)) {
          return;
        }
        const int conn = env.Accept(fd);
        if (conn < 0) {
          return;
        }
        while (true) {
          Bytes chunk;
          const long n = env.Recv(conn, 2048, &chunk);
          if (n <= 0) {
            break;
          }
          result->bytes_received += static_cast<std::uint64_t>(n);
          if (verify_payload) {
            for (std::uint8_t byte : chunk) {
              if (byte != SenderHost::PayloadByte(*cursor)) {
                result->integrity_ok = false;
              }
              ++(*cursor);
            }
          }
        }
        result->done_at = k.Now();
      },
      /*resident_pages=*/200);

  // Give the listener a moment to reach accept(), then open the stream.
  tb.machine().events().ScheduleAt(tb.machine().Now() + 20 * kMillisecond,
                                   [sender, stream_bytes] {
                                     sender->StartStream(kPcIpAddr, 4000, stream_bytes);
                                   });

  const Nanoseconds start = k.Now();
  k.Run(start + duration);
  result->elapsed = k.Now() - start;
  result->bytes_acked = sender->bytes_acked();
  result->segments_sent = sender->segments_sent();
  result->retransmits = sender->retransmits();
  result->rx_dropped = k.net().we().rx_dropped();
  const Nanoseconds effective =
      result->done_at != 0 ? result->done_at - start : result->elapsed;
  if (effective > 0) {
    result->throughput_kb_s = static_cast<double>(result->bytes_received) /
                              (static_cast<double>(effective) / 1e9) / 1024.0;
  }
  return *result;
}

StreamingRunResult RunStreamingNetworkReceive(Testbed& tb, Nanoseconds duration,
                                              std::uint64_t stream_bytes,
                                              Nanoseconds drain_period,
                                              const std::string& stream_path) {
  HWPROF_CHECK_MSG(tb.profiler().double_buffered(),
                   "the streaming receive needs a double-buffered board");
  HWPROF_CHECK(drain_period > 0);
  auto result = std::make_shared<StreamingRunResult>();
  const bool save = !stream_path.empty();
  if (save && !SaveStreamHeader(stream_path, tb.profiler().timer().bits(),
                                tb.profiler().timer().clock_hz())) {
    result->io_ok = false;
  }

  // The periodic host-side drain, running as a simulated-time event so its
  // bus cycles (and its profdrain triggers) interleave with the workload.
  // Each scheduled event owns the closure; the closure holds itself only
  // weakly, so the last pending event frees it (and `result`'s chunks).
  auto stopped = std::make_shared<bool>(false);
  auto drain = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> self = drain;
  *drain = [&tb, result, self, drain_period, save, stream_path, stopped] {
    if (*stopped) {
      return;
    }
    ++result->polls;
    TraceChunk chunk;
    if (DrainChunk(tb.machine(), tb.instr(), tb.profiler(), &chunk)) {
      ++result->drains;
      if (save && !AppendStreamChunk(stream_path, chunk)) {
        result->io_ok = false;
      }
      result->chunks.push_back(std::move(chunk));
    }
    // Running means a pending event holds a strong reference, so this
    // lock() always succeeds.
    tb.machine().events().ScheduleAt(tb.machine().Now() + drain_period,
                                     [drain = self.lock()] { (*drain)(); });
  };
  tb.machine().events().ScheduleAt(tb.machine().Now() + drain_period,
                                   [drain] { (*drain)(); });

  result->net = RunNetworkReceive(tb, duration, stream_bytes, /*verify_payload=*/false);
  *stopped = true;

  tb.profiler().Disarm();
  const std::size_t tail_start = result->chunks.size();
  DrainRemaining(tb.machine(), tb.instr(), tb.profiler(), &result->chunks);
  for (std::size_t i = tail_start; save && i < result->chunks.size(); ++i) {
    if (!AppendStreamChunk(stream_path, result->chunks[i])) {
      result->io_ok = false;
    }
  }
  for (const TraceChunk& c : result->chunks) {
    result->events_drained += c.events.size();
    result->events_dropped += c.dropped_before;
  }
  // A drain event still pending returns on `stopped` without touching
  // `result`, so its contents can be moved out.
  return std::move(*result);
}

ForkExecResult RunForkExec(Testbed& tb, int iterations, Nanoseconds max_time,
                           int shell_resident_pages, std::size_t image_bytes) {
  Kernel& k = tb.kernel();
  k.fs().InstallFile("/bin/test", PatternBytes(image_bytes));
  auto result = std::make_shared<ForkExecResult>();

  k.Spawn(
      "sh",
      [result, iterations, &k](UserEnv& env) {
        for (int i = 0; i < iterations && !k.stopping(); ++i) {
          const Nanoseconds t0 = k.Now();
          const int pid = env.Vfork([](UserEnv& child) {
            child.Execve("/bin/test");
            child.Compute(500 * kMicrosecond);  // the test program's own work
            child.Exit(0);
          });
          (void)pid;
          env.Wait();
          result->cycle_times.push_back(k.Now() - t0);
          ++result->iterations_done;
          env.Print(StrFormat("run %d done\n", i));
        }
      },
      shell_resident_pages);

  const Nanoseconds start = k.Now();
  k.Run(start + max_time);
  result->elapsed = k.Now() - start;
  return *result;
}

FsWriteResult RunFsWrite(Testbed& tb, std::uint64_t total_bytes, Nanoseconds max_time) {
  Kernel& k = tb.kernel();
  auto result = std::make_shared<FsWriteResult>();

  auto done_at = std::make_shared<Nanoseconds>(0);
  auto busy_at_done = std::make_shared<Nanoseconds>(0);
  k.Spawn("writer", [result, done_at, busy_at_done, total_bytes, &k](UserEnv& env) {
    const int fd = env.Open("/out", /*create=*/true);
    if (fd < 0) {
      return;
    }
    const Bytes block = PatternBytes(kFsBlockBytes);
    while (result->bytes_written < total_bytes && !k.stopping()) {
      if (env.Write(fd, block) <= 0) {
        break;
      }
      result->bytes_written += block.size();
    }
    env.Close(fd);
    // Drain the async writes so the measurement covers the full storm.
    k.fs().SyncAll();
    *done_at = k.Now();
    *busy_at_done = k.cpu().busy_ns();
  });

  const Nanoseconds start = k.Now();
  const Nanoseconds busy0 = k.cpu().busy_ns();
  k.Run(start + max_time);
  const Nanoseconds end = *done_at != 0 ? *done_at : k.Now();
  const Nanoseconds busy_end = *done_at != 0 ? *busy_at_done : k.cpu().busy_ns();
  result->elapsed = end - start;
  result->disk_writes = k.fs().disk().writes_completed();
  if (result->elapsed > 0) {
    result->cpu_busy_pct =
        100.0 * static_cast<double>(busy_end - busy0) / static_cast<double>(result->elapsed);
  }
  return *result;
}

FsReadResult RunFsRandomReads(Testbed& tb, int reads, Nanoseconds max_time) {
  Kernel& k = tb.kernel();
  // One large file spread across the platter so every uncached read seeks.
  constexpr std::size_t kFileBytes = 3 * kMiB;
  const Bytes contents = PatternBytes(kFileBytes);
  k.fs().InstallFileScattered("/data", contents, /*stride=*/9);
  auto result = std::make_shared<FsReadResult>();

  k.Spawn("reader", [result, reads, &contents, &k](UserEnv& env) {
    const int fd = env.Open("/data", false);
    if (fd < 0) {
      return;
    }
    Rng rng(42);
    for (int i = 0; i < reads && !k.stopping(); ++i) {
      // Random block-aligned offset; reopen-by-seek is modelled by just
      // reading at the offset through a fresh fd each time.
      const std::uint64_t block = rng.NextBelow(kFileBytes / kFsBlockBytes);
      const std::uint64_t off = block * kFsBlockBytes;
      Bytes out;
      const Nanoseconds t0 = k.Now();
      const long n = env.ReadAt(fd, off, kFsBlockBytes, &out);
      result->read_times.push_back(k.Now() - t0);
      if (n > 0) {
        result->bytes_read += static_cast<std::uint64_t>(n);
        for (long j = 0; j < n; ++j) {
          if (out[static_cast<std::size_t>(j)] != contents[off + static_cast<std::size_t>(j)]) {
            result->data_ok = false;
          }
        }
      }
    }
    env.Close(fd);
  });

  const Nanoseconds start = k.Now();
  k.Run(start + max_time);
  return *result;
}

TransferCompareResult RunNfsVsFtp(Testbed& tb_nfs, Testbed& tb_tcp, std::uint64_t bytes) {
  TransferCompareResult result;

  // --- NFS leg -----------------------------------------------------------------
  {
    Kernel& k = tb_nfs.kernel();
    auto server = std::make_shared<NfsServerHost>(tb_nfs.machine(), k.wire());
    const std::uint32_t fh = server->Export("bigfile", PatternBytes(bytes, 7));
    auto done_at = std::make_shared<Nanoseconds>(0);
    auto got = std::make_shared<std::uint64_t>(0);
    auto ok = std::make_shared<bool>(true);
    k.Spawn("nfsread", [fh, done_at, got, ok, bytes, &k](UserEnv& env) {
      k.nfs().Init();
      Bytes out;
      const long n = env.NfsRead(fh, 0, static_cast<std::uint32_t>(bytes), &out);
      *got = n > 0 ? static_cast<std::uint64_t>(n) : 0;
      const Bytes expect = PatternBytes(bytes, 7);
      *ok = out.size() == expect.size() && out == expect;
      *done_at = k.Now();
    });
    const Nanoseconds start = k.Now();
    k.Run(start + Sec(30));
    result.nfs_bytes = *got;
    result.nfs_data_ok = *ok;
    result.nfs_elapsed = (*done_at != 0 ? *done_at : k.Now()) - start;
    if (result.nfs_elapsed > 0) {
      result.nfs_kb_s = static_cast<double>(result.nfs_bytes) /
                        (static_cast<double>(result.nfs_elapsed) / 1e9) / 1024.0;
    }
  }

  // --- FTP-style TCP leg ----------------------------------------------------------
  {
    NetReceiveResult tcp = RunNetworkReceive(tb_tcp, Sec(30), bytes, /*verify=*/false);
    result.tcp_bytes = tcp.bytes_received;
    result.tcp_elapsed = tcp.done_at != 0 ? tcp.done_at : tcp.elapsed;
    if (result.tcp_elapsed > 0) {
      result.tcp_kb_s = static_cast<double>(result.tcp_bytes) /
                        (static_cast<double>(result.tcp_elapsed) / 1e9) / 1024.0;
    }
  }
  return result;
}

MixedResult RunMixed(Testbed& tb, Nanoseconds duration) {
  Kernel& k = tb.kernel();
  k.fs().InstallFile("/bin/tool", PatternBytes(64 * 1024));
  k.fs().InstallFile("/etc/conf", PatternBytes(16 * 1024));

  // Page toucher: vm_fault traffic.
  k.Spawn(
      "toucher",
      [&k](UserEnv& env) {
        while (!k.stopping()) {
          env.TouchPages(40, /*write=*/true);
          env.Compute(2 * kMillisecond);
        }
      },
      600);

  // Forker: vfork/execve/kmem_alloc/copyinstr traffic.
  k.Spawn(
      "forker",
      [&k](UserEnv& env) {
        while (!k.stopping()) {
          env.Vfork([](UserEnv& child) {
            child.Execve("/bin/tool");
            child.Exit(0);
          });
          env.Wait();
          env.Compute(5 * kMillisecond);
        }
      },
      400);

  // File reader: namei/copyinstr/bread and malloc/free via descriptors.
  k.Spawn("filer", [&k](UserEnv& env) {
    while (!k.stopping()) {
      const int fd = env.Open("/etc/conf", false);
      if (fd >= 0) {
        Bytes out;
        env.Read(fd, 4096, &out);
        env.Close(fd);
      }
      env.Compute(1 * kMillisecond);
    }
  });

  // Background network chatter: splnet/splx/spl0 and driver traffic.
  auto sender = std::make_shared<SenderHost>(tb.machine(), k.wire(), kSenderNodeId,
                                             kSenderIpAddr);
  k.Spawn("nettalk", [sender, &k](UserEnv& env) {
    const int fd = env.Socket(true);
    if (fd < 0 || !env.Bind(fd, 4000) || !env.Listen(fd)) {
      return;
    }
    const int conn = env.Accept(fd);
    while (conn >= 0 && !k.stopping()) {
      Bytes chunk;
      if (env.Recv(conn, 4096, &chunk) <= 0) {
        break;
      }
    }
  });
  tb.machine().events().ScheduleAt(tb.machine().Now() + 50 * kMillisecond, [sender] {
    sender->StartStream(kPcIpAddr, 4000, 4 * kMiB);
  });

  MixedResult result;
  const Nanoseconds start = k.Now();
  k.Run(start + duration);
  result.elapsed = k.Now() - start;
  return result;
}

LookupResult RunLookupMix(Testbed& tb, int opens_per_worker, Nanoseconds max_time) {
  Kernel& k = tb.kernel();
  // A small working set of deep paths: the same directories walked over and
  // over, so a 64-entry name cache covers every component.
  static const char* const kPaths[] = {
      "/usr/local/lib/app/conf/settings",
      "/usr/local/lib/app/conf/theme",
      "/usr/local/lib/app/data/table",
      "/usr/share/dict/words",
      "/etc/rc/conf/net",
      "/etc/rc/conf/disk",
  };
  std::uint8_t seed = 1;
  for (const char* path : kPaths) {
    k.fs().InstallFile(path, PatternBytes(2048, seed++));
  }

  auto result = std::make_shared<LookupResult>();
  auto workers_left = std::make_shared<int>(2);
  for (int worker = 0; worker < 2; ++worker) {
    k.Spawn("lookup", [&k, result, workers_left, worker, opens_per_worker](UserEnv& env) {
      std::size_t next = static_cast<std::size_t>(worker) * 3;
      for (int done = 0; done < opens_per_worker && !k.stopping(); ++done) {
        const char* path = kPaths[next % (sizeof(kPaths) / sizeof(kPaths[0]))];
        ++next;
        const int fd = env.Open(path, false);
        if (fd < 0) {
          ++result->open_failures;
          continue;
        }
        Bytes out;
        env.Read(fd, 512, &out);
        env.Close(fd);
        ++result->opens_done;
        env.Compute(500 * kMicrosecond);
      }
      if (--*workers_left == 0) {
        result->done_at = k.Now();
      }
    });
  }

  const Nanoseconds start = k.Now();
  k.Run(start + max_time);
  result->elapsed = k.Now() - start;
  return *result;
}

}  // namespace hwprof
