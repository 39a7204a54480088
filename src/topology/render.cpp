#include "topology/render.hpp"

#include <functional>
#include <sstream>

#include "common/strings.hpp"

namespace zerosum::topology {

std::string formatCapacity(std::uint64_t bytes) {
  constexpr std::uint64_t kKiB = 1024;
  constexpr std::uint64_t kMiB = kKiB * 1024;
  constexpr std::uint64_t kGiB = kMiB * 1024;
  if (bytes >= kGiB && bytes % kGiB == 0) {
    return std::to_string(bytes / kGiB) + "GB";
  }
  if (bytes >= kMiB && bytes % kMiB == 0) {
    return std::to_string(bytes / kMiB) + "MB";
  }
  if (bytes >= kKiB) {
    return std::to_string(bytes / kKiB) + "KB";
  }
  return std::to_string(bytes) + "B";
}

std::string renderTree(const Topology& topo, const RenderOptions& opts) {
  std::ostringstream out;
  if (opts.banner) {
    out << "HWLOC Node topology:\n";
  }

  std::function<void(const HwObject&, int)> walk = [&](const HwObject& obj,
                                                       int depth) {
    out << std::string(static_cast<std::size_t>(depth * opts.indentWidth), ' ')
        << objTypeName(obj.type) << " L#" << obj.logicalIndex;
    if (obj.type == ObjType::kPu) {
      out << " P#" << obj.osIndex;
    }
    const bool isCache = obj.type == ObjType::kL3Cache ||
                         obj.type == ObjType::kL2Cache ||
                         obj.type == ObjType::kL1Cache;
    if (isCache && opts.showCacheSizes && obj.sizeBytes > 0) {
      out << ' ' << formatCapacity(obj.sizeBytes);
    }
    if (obj.type == ObjType::kNumaNode && obj.sizeBytes > 0) {
      out << " (" << formatCapacity(obj.sizeBytes) << ")";
    }
    out << '\n';
    for (const auto& child : obj.children) {
      walk(*child, depth + 1);
    }
  };
  walk(topo.root(), 0);

  if (opts.showGpus && !topo.gpus().empty()) {
    out << "GPUs:\n";
    for (const auto& gpu : topo.gpus()) {
      out << std::string(static_cast<std::size_t>(opts.indentWidth), ' ')
          << gpu.model << " P#" << gpu.physicalIndex << " (visible #"
          << gpu.visibleIndex << ", NUMA ";
      if (gpu.numaAffinity >= 0) {
        out << gpu.numaAffinity;
      } else {
        out << "unknown";
      }
      out << ", " << formatCapacity(gpu.memoryBytes) << ")\n";
    }
  }
  return out.str();
}

std::string renderNodeDiagram(const Topology& topo) {
  std::ostringstream out;
  out << "Node diagram: " << topo.name() << "\n";
  out << strings::padRight("NUMA", 6) << strings::padRight("PUs", 28)
      << strings::padRight("reserved", 20) << "GPUs (physical->visible)\n";
  for (std::size_t nd = 0; nd < topo.numaCount(); ++nd) {
    const int numaIdx = static_cast<int>(nd);
    const CpuSet& pus = topo.pusOfNuma(numaIdx);
    const CpuSet reserved = pus & topo.reservedPus();
    std::string gpuCol;
    for (const auto& gpu : topo.gpusOfNuma(numaIdx)) {
      if (!gpuCol.empty()) {
        gpuCol += ", ";
      }
      gpuCol += std::to_string(gpu.physicalIndex) + "->" +
                std::to_string(gpu.visibleIndex);
    }
    if (gpuCol.empty()) {
      // assign(count, char): gcc 12 -O3 flags operator=(const char*) here
      // with a false -Wrestrict.
      gpuCol.assign(1, '-');
    }
    out << strings::padRight(std::to_string(numaIdx), 6)
        << strings::padRight(pus.toList(), 28)
        << strings::padRight(reserved.empty() ? "-" : reserved.toList(), 20)
        << gpuCol << '\n';
  }
  bool anyUnknown = false;
  for (const auto& gpu : topo.gpus()) {
    anyUnknown = anyUnknown || gpu.numaAffinity < 0;
  }
  if (anyUnknown) {
    out << "note: one or more GPUs have unspecified NUMA affinity "
           "(information absent from the published node diagram)\n";
  }
  return out.str();
}

}  // namespace zerosum::topology
