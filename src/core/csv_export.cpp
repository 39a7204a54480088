#include "core/csv_export.hpp"

#include <array>
#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

#include "common/strings.hpp"
#include "gpu/metrics.hpp"

namespace zerosum::core {

namespace {

/// Bytes handed to the stream per write.
constexpr std::size_t kChunkBytes = 16 * 1024;

/// A value printed as strings::fixed(value, precision) would print it.
struct Fixed {
  double value = 0.0;
  int precision = 0;
};

/// Formats one section's rows into a reused buffer with std::to_chars and
/// hands it to the stream in kChunkBytes pieces: one allocation per
/// section and one write per chunk, instead of an ostream call per field.
/// For the field types the sections write (text, char, integers wider
/// than a byte, Fixed) it prints what a default-formatted `std::ostream`
/// prints, which keeps the log byte-identical.
class RowBuffer {
 public:
  explicit RowBuffer(std::ostream& out) : out_(out) {
    buf_.reserve(2 * kChunkBytes);  // a full chunk plus the row past it
  }

  RowBuffer& operator<<(std::string_view text) {
    buf_.append(text);
    return *this;
  }
  RowBuffer& operator<<(char c) {
    buf_.push_back(c);
    return *this;
  }
  template <std::integral Int>
  RowBuffer& operator<<(Int v) {
    char digits[24];  // any 64-bit integer with its sign
    buf_.append(digits,
                std::to_chars(digits, digits + sizeof(digits), v).ptr);
    return *this;
  }
  RowBuffer& operator<<(Fixed f) {
    strings::appendFixed(buf_, f.value, f.precision);
    return *this;
  }

  /// Ends a row and writes out every whole chunk the buffer holds.
  void endRow() {
    buf_.push_back('\n');
    std::size_t written = 0;
    while (buf_.size() - written >= kChunkBytes) {
      out_.write(buf_.data() + written,
                 static_cast<std::streamsize>(kChunkBytes));
      written += kChunkBytes;
    }
    if (written > 0) {
      buf_.erase(0, written);
    }
  }

  /// Writes the partial chunk left at the end of the section.
  void finish() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  std::ostream& out_;
  std::string buf_;
};

}  // namespace

void CsvExporter::writeLwpSeries(std::ostream& out,
                                 const std::map<int, LwpRecord>& lwps) {
  RowBuffer row(out);
  row << "time,tid,type,state,utime,stime,utime_delta,stime_delta,vctx,"
         "nvctx,minflt,majflt,processor,affinity\n";
  for (const auto& [tid, record] : lwps) {
    const std::string type = lwpTypeName(record.type);
    // The affinity text is rendered once per change, not once per row;
    // rows before the first change have an empty affinity.
    std::string affinity;
    auto change = record.affinityChanges.begin();
    for (std::size_t i = 0; i < record.samples.size(); ++i) {
      while (change != record.affinityChanges.end() &&
             change->firstSample <= i) {
        affinity = change->cpus.toList();
        ++change;
      }
      const LwpSample& s = record.samples[i];
      row << Fixed{s.timeSeconds, 3} << ',' << tid << ',' << type << ','
          << s.state << ',' << s.utime << ',' << s.stime << ','
          << s.utimeDelta << ',' << s.stimeDelta << ',' << s.voluntaryCtx
          << ',' << s.nonvoluntaryCtx << ',' << s.minorFaults << ','
          << s.majorFaults << ',' << s.processor << ",\"" << affinity << '"';
      row.endRow();
    }
  }
  row.finish();
}

void CsvExporter::writeHwtSeries(std::ostream& out,
                                 const std::map<std::size_t, HwtRecord>& hwts) {
  RowBuffer row(out);
  row << "time,cpu,user_pct,system_pct,idle_pct\n";
  for (const auto& [cpu, record] : hwts) {
    for (const auto& s : record.samples) {
      row << Fixed{s.timeSeconds, 3} << ',' << cpu << ','
          << Fixed{s.userPct, 2} << ',' << Fixed{s.systemPct, 2} << ','
          << Fixed{s.idlePct, 2};
      row.endRow();
    }
  }
  row.finish();
}

void CsvExporter::writeMemorySeries(std::ostream& out,
                                    const std::vector<MemSample>& samples) {
  RowBuffer row(out);
  row << "time,mem_total_kb,mem_free_kb,mem_available_kb,rss_kb,hwm_kb\n";
  for (const auto& s : samples) {
    row << Fixed{s.timeSeconds, 3} << ',' << s.memTotalKb << ','
        << s.memFreeKb << ',' << s.memAvailableKb << ',' << s.processRssKb
        << ',' << s.processHwmKb;
    row.endRow();
  }
  row.finish();
}

void CsvExporter::writeGpuSeries(std::ostream& out,
                                 const std::vector<GpuRecord>& gpus) {
  // Labels are rendered once per log, not once per row.
  std::array<std::string, gpu::kAllMetrics.size()> labels;
  for (const gpu::Metric metric : gpu::kAllMetrics) {
    labels[static_cast<std::size_t>(metric)] = gpu::metricLabel(metric);
  }
  RowBuffer row(out);
  row << "time,gpu,metric,value\n";
  for (const auto& gpu : gpus) {
    for (const auto& [time, sample] : gpu.samples) {
      for (const auto& [metric, value] : sample) {
        row << Fixed{time, 3} << ',' << gpu.visibleIndex << ",\""
            << labels.at(static_cast<std::size_t>(metric)) << "\","
            << Fixed{value, 6};
        row.endRow();
      }
    }
  }
  row.finish();
}

void CsvExporter::writeCommSeries(std::ostream& out,
                                  const mpisim::Recorder& recorder) {
  out << recorder.toCsv();
}

void CsvExporter::writeHealthSeries(std::ostream& out,
                                    const std::vector<HealthSample>& samples) {
  RowBuffer row(out);
  row << "time,samples_taken,samples_degraded,samples_dropped,loop_overruns,"
         "subsystems_quarantined,quarantines,recoveries,"
         "agg_records_coarsened,agg_degrade_transitions,"
         "agg_records_dropped,agg_degrade_stage,agg_acked_pressure,"
         "agg_fanin_direct,agg_fanin_forwarded,agg_fanin_max_hops\n";
  for (const auto& s : samples) {
    row << Fixed{s.timeSeconds, 3} << ',' << s.samplesTaken << ','
        << s.samplesDegraded << ',' << s.samplesDropped << ','
        << s.loopOverruns << ',' << s.subsystemsQuarantined << ','
        << s.quarantines << ',' << s.recoveries << ','
        << s.aggRecordsCoarsened << ',' << s.aggDegradeTransitions << ','
        << s.aggRecordsDropped << ',' << s.aggDegradeStage << ','
        << s.aggAckedPressure << ',' << s.aggFaninDirect << ','
        << s.aggFaninForwarded << ',' << s.aggFaninMaxHops;
    row.endRow();
  }
  row.finish();
}

}  // namespace zerosum::core
