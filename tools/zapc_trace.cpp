// zapc-trace: offline analyzer for ZapC trace evidence.
//
//   zapc-trace FILE...                render per-op ASCII causal timelines
//   zapc-trace --critpath FILE...     same, critical-path spans marked `*`
//                                     with a per-op attribution summary
//   zapc-trace --validate FILE...     re-check protocol invariants offline
//   zapc-trace --validate --json ...  one JSON violation object per line
//
// Accepts bench evidence (zapc.obs.v1, bench_results/*.json) and
// flight-recorder postmortems (zapc.obs.postmortem.v1).  Exit codes:
// 0 = clean, 1 = invariant violation, 2 = unreadable/malformed input.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "obs/critpath.h"
#include "obs/json.h"
#include "obs/vtime.h"
#include "tools/trace_analysis.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: zapc-trace [--validate [--json] | --critpath] "
               "[--allow-open-spans] file.json...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool validate = false;
  bool json = false;
  bool critpath = false;
  zapc::tools::ValidateOptions opts;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--validate") {
      validate = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--critpath") {
      critpath = true;
    } else if (arg == "--allow-open-spans") {
      opts.allow_open_spans = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage();
  if (json && !validate) return usage();
  if (critpath && validate) return usage();

  int rc = 0;
  for (const std::string& f : files) {
    auto doc = zapc::tools::load_trace_doc(f);
    if (!doc) {
      std::fprintf(stderr, "zapc-trace: %s\n",
                   doc.status().to_string().c_str());
      return 2;
    }
    auto ops = zapc::tools::group_by_op(doc.value().spans);

    if (!validate) {
      std::printf("%s  (%s: %s, %zu op-tagged records in %zu ops)\n",
                  f.c_str(), doc.value().schema.c_str(),
                  doc.value().name.c_str(), doc.value().spans.size(),
                  ops.size());
      for (const auto& op : ops) {
        if (!critpath) {
          std::printf("%s", zapc::tools::render_op_timeline(op).c_str());
          continue;
        }
        auto attrib = zapc::obs::attribute_op(op.records);
        if (!attrib) {
          std::printf("%s", zapc::tools::render_op_timeline(op).c_str());
          std::printf("  (no critical path: %s)\n",
                      attrib.status().to_string().c_str());
          continue;
        }
        const auto& a = attrib.value();
        std::set<zapc::obs::SpanId> marks;
        for (const auto& seg : a.segments) {
          if (!seg.edge && seg.span != 0) marks.insert(seg.span);
        }
        std::printf("%s",
                    zapc::tools::render_op_timeline(op, marks).c_str());
        std::printf("  * critical path: downtime %s, pod %s, phase %s "
                    "(%s)\n",
                    zapc::obs::vtime_us(a.downtime_us).c_str(),
                    a.critical_pod.empty() ? "-" : a.critical_pod.c_str(),
                    a.critical_phase.empty() ? "-"
                                             : a.critical_phase.c_str(),
                    zapc::obs::vtime_us(a.critical_phase_us).c_str());
      }
      continue;
    }

    // A postmortem snapshots mid-failure, so its in-flight spans are
    // legitimately open; only explicit evidence exports must close all.
    zapc::tools::ValidateOptions file_opts = opts;
    if (doc.value().schema == zapc::obs::kPostmortemSchemaVersion) {
      file_opts.allow_open_spans = true;
    }
    auto bad = zapc::tools::validate_ops_detailed(doc.value().spans,
                                                  file_opts);
    if (json) {
      // Machine-readable mode: one compact violation object per line,
      // nothing else on stdout (clean files emit no lines at all).
      if (!bad.empty()) rc = 1;
      for (const auto& v : bad) {
        zapc::tools::ViolationLine line{f, v.op, v.message};
        std::printf("%s\n", zapc::obs::to_json(line).dump().c_str());
      }
    } else if (bad.empty()) {
      std::printf("OK %s (%zu ops)\n", f.c_str(), ops.size());
    } else {
      rc = 1;
      for (const auto& v : bad) {
        std::printf("FAIL %s: op %llu: %s\n", f.c_str(),
                    static_cast<unsigned long long>(v.op),
                    v.message.c_str());
      }
    }
  }
  return rc;
}
