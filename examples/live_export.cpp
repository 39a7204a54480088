// Data-export pipeline (paper §3.3 / §6): monitor a real run of the
// miniQMC proxy while streaming every period's metrics to
//   * a MetricStream subscriber (an LDMS-style live consumer printing a
//     one-line ticker), and
//   * the PerfStubs ToolApi (a TAU-style tool, here the bundled recording
//     backend) — then list a few of the counters the tool captured.
//
//   $ ./live_export [threads] [steps]
#include <unistd.h>

#include <cstdlib>
#include <iostream>

#include "common/strings.hpp"
#include "core/monitor.hpp"
#include "export/perfstubs.hpp"
#include "export/publisher.hpp"
#include "procfs/procfs.hpp"
#include "proxyapps/miniqmc.hpp"

using namespace zerosum;

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 2;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 3000;

  // The TAU-style tool attaches through the PerfStubs interface.
  auto tauLike = std::make_shared<exporter::RecordingBackend>();
  exporter::ToolApi::instance().registerBackend(tauLike);

  // The LDMS-style service subscribes to the live stream.
  exporter::MetricStream stream;
  stream.subscribe([](const exporter::Batch& batch) {
    double busiest = 0.0;
    for (const auto& record : batch) {
      if (record.nameView().rfind("hwt.", 0) == 0 &&
          record.nameView().find("user_pct") != std::string_view::npos) {
        busiest = std::max(busiest, record.value);
      }
    }
    std::cout << "[stream] t=" << strings::fixed(batch.front().timeSeconds, 1)
              << "s  " << batch.size() << " records, busiest HWT "
              << strings::fixed(busiest, 1) << "% user\n";
  });

  exporter::SessionPublisher::Options options;
  options.perfstubs = true;
  exporter::SessionPublisher publisher(&stream, options);

  core::Config cfg;
  cfg.period = std::chrono::milliseconds(100);
  cfg.signalHandler = false;
  cfg.jiffyHz = static_cast<std::uint64_t>(::sysconf(_SC_CLK_TCK));
  core::MonitorSession session(cfg, procfs::makeRealProcFs());
  session.setSampleCallback(
      [&publisher](const core::MonitorSession& s, double t) {
        publisher.publish(s, t);
      });
  session.start();

  proxyapps::MiniQmcParams params;
  params.threads = threads;
  params.steps = steps;
  params.walkersPerThread = 4;
  params.electrons = 64;
  const auto result = proxyapps::runMiniQmc(params);
  session.stop();
  exporter::ToolApi::instance().deregisterBackend();

  std::cout << "\nminiQMC proxy: " << result.moves << " moves in "
            << strings::fixed(result.seconds, 3) << " s\n";
  std::cout << "published " << publisher.periodsPublished()
            << " periods; stream carried " << stream.recordsPublished()
            << " records\n";
  const auto counters = tauLike->counters();
  std::cout << "PerfStubs backend captured " << counters.size()
            << " distinct counters:\n";
  int shown = 0;
  for (const auto& [name, values] : counters) {
    if (++shown > 8) {
      std::cout << "  ...\n";
      break;
    }
    std::cout << "  " << name << " (" << values.size() << " values)\n";
  }
  return 0;
}
