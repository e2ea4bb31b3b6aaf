// Blocking-stage thread sweep: RunMfiBlocks at 1 thread vs N threads on a
// synthetic corpus, reporting candidate pairs/sec and the per-substage
// wall-time breakdown (mine / support / score / threshold / emit) and how
// many of the considered blocks had to be scored. The
// sweep asserts output identity between the serial and every parallel run
// (the blocking determinism contract) before reporting any number, and
// writes a JSON record (--out) so the repo can track the perf trajectory
// (BENCH_blocking.json). The record starts with a host fingerprint (nproc,
// CPU model, kernel, git sha of the source tree), since pairs/sec and the
// speedup are only comparable between runs on the same host.
//
//   bench_blocking [--persons N] [--maxminsup K] [--ng G]
//                  [--threads T1,T2,...] [--out bench.json]
//
// On a single-core host the speedup is ~1.0x by construction; the
// identity assertion is the part that must hold everywhere.

#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "blocking/mfi_blocks.h"
#include "data/item_dictionary.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace yver;

struct Options {
  size_t persons = 4000;
  uint32_t max_minsup = 5;
  double ng = 3.5;
  std::vector<size_t> threads = {1, 2, 4, 8};
  std::string out;
};

std::vector<size_t> ParseThreadList(const char* arg) {
  std::vector<size_t> out;
  for (const char* p = arg; *p != '\0';) {
    out.push_back(static_cast<size_t>(std::strtoul(p, nullptr, 10)));
    p = std::strchr(p, ',');
    if (p == nullptr) break;
    ++p;
  }
  return out;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--persons") == 0) {
      options.persons = static_cast<size_t>(std::atol(next("--persons")));
    } else if (std::strcmp(argv[i], "--maxminsup") == 0) {
      options.max_minsup =
          static_cast<uint32_t>(std::atol(next("--maxminsup")));
    } else if (std::strcmp(argv[i], "--ng") == 0) {
      options.ng = std::atof(next("--ng"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      options.threads = ParseThreadList(next("--threads"));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      options.out = next("--out");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  return options;
}

struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model = "unknown";
  std::string kernel = "unknown";
  std::string git_sha = "unknown";
};

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\n");
  if (begin == std::string::npos) return "";
  return s.substr(begin, s.find_last_not_of(" \t\n") - begin + 1);
}

// JSON string body: drops the characters that would need escaping.
std::string JsonSafe(std::string s) {
  std::erase_if(s, [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
  return s;
}

Fingerprint HostFingerprint() {
  Fingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != line.npos) {
      fp.cpu_model = JsonSafe(Trim(line.substr(line.find(':') + 1)));
      break;
    }
  }
  struct utsname uts;
  if (uname(&uts) == 0) fp.kernel = JsonSafe(uts.release);
  // The HEAD sha of the tree this binary was built from, suffixed
  // "-dirty" when the tree has uncommitted changes ("unknown" outside a
  // git checkout).
  std::string cmd =
      std::string("git -C '") + YVER_SOURCE_DIR +
      "' describe --always --dirty --abbrev=40 2>/dev/null";
  if (FILE* pipe = popen(cmd.c_str(), "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      std::string sha = JsonSafe(Trim(buf));
      if (!sha.empty()) fp.git_sha = sha;
    }
    pclose(pipe);
  }
  return fp;
}

struct SweepPoint {
  size_t threads = 0;
  double seconds = 0.0;
  double pairs_per_sec = 0.0;
  blocking::BlockingTimings timings;
};

bool SameResult(const blocking::MfiBlocksResult& a,
                const blocking::MfiBlocksResult& b) {
  return a.blocks == b.blocks && a.pairs == b.pairs &&
         a.num_mfis_mined == b.num_mfis_mined &&
         a.num_blocks_considered == b.num_blocks_considered &&
         a.num_blocks_scored == b.num_blocks_scored &&
         a.num_records_covered == b.num_records_covered;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);

  auto config = synth::ItalyConfig();
  config.num_persons = options.persons;
  config.include_mv = true;
  config.seed = 11;
  auto generated = synth::Generate(config);
  synth::Gazetteer gazetteer;
  auto encoded =
      data::EncodeDataset(generated.dataset, gazetteer.MakeGeoResolver());

  blocking::MfiBlocksConfig blocking_config;
  blocking_config.max_minsup = options.max_minsup;
  blocking_config.ng = options.ng;
  blocking_config.expert_weighting = true;

  std::printf(
      "corpus: %zu records, %zu distinct items; maxminsup=%u ng=%.2f\n",
      generated.dataset.size(), encoded.dictionary.size(),
      options.max_minsup, options.ng);

  std::vector<SweepPoint> sweep;
  blocking::MfiBlocksResult reference;
  for (size_t num_threads : options.threads) {
    std::unique_ptr<util::ThreadPool> pool;
    if (num_threads > 1) {
      pool = std::make_unique<util::ThreadPool>(num_threads);
    }
    util::Timer timer;
    auto result = blocking::RunMfiBlocks(encoded, blocking_config,
                                         pool.get());
    SweepPoint point;
    point.threads = num_threads;
    point.seconds = timer.ElapsedSeconds();
    point.pairs_per_sec =
        static_cast<double>(result.pairs.size()) / point.seconds;
    point.timings = result.timings;
    if (sweep.empty()) {
      reference = std::move(result);
    } else if (!SameResult(result, reference)) {
      std::fprintf(stderr,
                   "FATAL: blocking output diverged at %zu threads — the "
                   "determinism contract is broken\n",
                   num_threads);
      return 1;
    }
    std::printf(
        "threads=%zu  %8.3f s  %10.0f pairs/s  "
        "(mine %.3f  support %.3f  score %.3f  threshold %.3f  emit %.3f)\n",
        point.threads, point.seconds, point.pairs_per_sec,
        point.timings.mine_seconds, point.timings.support_seconds,
        point.timings.score_seconds, point.timings.threshold_seconds,
        point.timings.emit_seconds);
    sweep.push_back(point);
  }

  double speedup = sweep.size() > 1 && sweep.back().seconds > 0.0
                       ? sweep.front().seconds / sweep.back().seconds
                       : 1.0;
  std::printf("blocks=%zu pairs=%zu mfis=%zu considered=%zu scored=%zu  "
              "speedup(%zu->%zu threads)=%.2fx\n",
              reference.blocks.size(), reference.pairs.size(),
              reference.num_mfis_mined, reference.num_blocks_considered,
              reference.num_blocks_scored, sweep.front().threads,
              sweep.back().threads, speedup);

  if (!options.out.empty()) {
    const Fingerprint host = HostFingerprint();
    std::ofstream out(options.out);
    out << "{\n"
        << "  \"bench\": \"blocking\",\n"
        << "  \"host\": {\"nproc\": " << host.nproc << ", \"cpu_model\": \""
        << host.cpu_model << "\", \"kernel\": \"" << host.kernel
        << "\", \"git_sha\": \"" << host.git_sha << "\"},\n"
        << "  \"corpus_records\": " << generated.dataset.size() << ",\n"
        << "  \"distinct_items\": " << encoded.dictionary.size() << ",\n"
        << "  \"max_minsup\": " << options.max_minsup << ",\n"
        << "  \"ng\": " << options.ng << ",\n"
        << "  \"blocks\": " << reference.blocks.size() << ",\n"
        << "  \"pairs\": " << reference.pairs.size() << ",\n"
        << "  \"mfis_mined\": " << reference.num_mfis_mined << ",\n"
        << "  \"blocks_considered\": " << reference.num_blocks_considered
        << ",\n"
        << "  \"blocks_scored\": " << reference.num_blocks_scored << ",\n"
        << "  \"identity_across_thread_counts\": true,\n"
        << "  \"sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"threads\": %zu, \"seconds\": %.4f, \"pairs_per_sec\": "
          "%.0f, \"mine_seconds\": %.4f, \"support_seconds\": %.4f, "
          "\"score_seconds\": %.4f, \"threshold_seconds\": %.4f, "
          "\"emit_seconds\": %.4f}%s\n",
          p.threads, p.seconds, p.pairs_per_sec, p.timings.mine_seconds,
          p.timings.support_seconds, p.timings.score_seconds,
          p.timings.threshold_seconds, p.timings.emit_seconds,
          i + 1 < sweep.size() ? "," : "");
      out << buf;
    }
    char tail[64];
    std::snprintf(tail, sizeof(tail), "  \"speedup\": %.2f\n", speedup);
    out << "  ],\n" << tail << "}\n";
    std::printf("wrote %s\n", options.out.c_str());
  }
  return 0;
}
