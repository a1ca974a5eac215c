// qrdtm_lint -- in-tree protocol-invariant analyzer.
//
// Usage:
//   qrdtm_lint [options] <file-or-dir>...
//
// Options:
//   --families det,coro,hot,codec,buffer,epoch
//                          Force the listed rule families onto every input
//                          file (used by the fixture self-tests; --rules is
//                          an accepted alias).  Without it, families are
//                          selected per file from its path:
//                            det   : src/{sim,core,quorum,net,store,apps,
//                                    baselines} (bench/ and tools/ exempt:
//                                    the harness legitimately reads wall
//                                    clocks)
//                            coro  : every file
//                            hot   : src/sim, src/net, src/core/txn.*
//                            codec : src dirs above plus bench/ and tools/
//                            buffer: likewise
//                            epoch : likewise (tests/ stay exempt: they
//                                    build raw Messages to probe the
//                                    transport itself)
//   --sarif <path>         Also write diagnostics as SARIF 2.1.0 to <path>.
//   --stale-suppressions   Audit `qrdtm-lint: allow(...)` directives instead
//                          of reporting diagnostics: exit 1 when a directive
//                          names an unknown rule or no longer suppresses
//                          anything its family would emit on that file.
//   --list-rules           Print every rule name and exit.
//   -q                     Only print the summary line.
//
// Exit status: 0 = no diagnostics, 1 = diagnostics found, 2 = usage/IO
// error.  Diagnostics are suppressible in source with
// `// qrdtm-lint: allow(<rule>)` on the same or the preceding line.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.h"
#include "rules.h"
#include "symbols.h"

namespace fs = std::filesystem;
using namespace qrdtm::lint;

namespace {

bool has_source_ext(const fs::path& p) {
  std::string e = p.extension().string();
  return e == ".h" || e == ".hpp" || e == ".hh" || e == ".cpp" ||
         e == ".cc" || e == ".cxx";
}

bool contains_dir(const std::string& path, const char* dir) {
  // Match `dir` as a whole path component ("/sim/" or leading "sim/").
  std::string needle = std::string("/") + dir + "/";
  std::string hay = "/" + path;
  return hay.find(needle) != std::string::npos;
}

unsigned families_for(const fs::path& file) {
  std::string p = file.generic_string();
  unsigned fam = kCoro;
  const bool test_like =
      contains_dir(p, "tests") || contains_dir(p, "examples");
  const bool bench_tools = contains_dir(p, "bench") || contains_dir(p, "tools");
  bool src_dir = false;
  if (!test_like && !bench_tools) {
    for (const char* d :
         {"sim", "core", "quorum", "net", "store", "apps", "baselines"}) {
      if (contains_dir(p, d)) {
        src_dir = true;
        break;
      }
    }
  }
  if (src_dir) {
    fam |= kDet;
    const std::string stem = file.filename().string();
    if (contains_dir(p, "sim") || contains_dir(p, "net") ||
        (contains_dir(p, "core") && stem.rfind("txn.", 0) == 0)) {
      fam |= kHot;
    }
  }
  // The protocol-invariant families run everywhere except tests/examples:
  // bench/ and tools/ ship their own codecs and buffer handling (the fuzzer
  // drives the wire codecs directly) and must obey the same invariants.
  if (src_dir || bench_tools) {
    fam |= kCodec | kBuffer | kEpoch;
  }
  return fam;
}

struct FileEntry {
  fs::path path;
  std::string source;
  LexResult lexed;
  unsigned families = 0;
};

void json_escape(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

bool write_sarif(const std::string& path,
                 const std::vector<Diagnostic>& diags) {
  std::string j;
  j += "{\n";
  j += "  \"$schema\": "
       "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  j += "  \"version\": \"2.1.0\",\n";
  j += "  \"runs\": [{\n";
  j += "    \"tool\": {\"driver\": {\"name\": \"qrdtm_lint\", "
       "\"rules\": [";
  std::set<std::string> rule_ids;
  for (const Diagnostic& d : diags) rule_ids.insert(d.rule);
  bool first = true;
  for (const std::string& r : rule_ids) {
    if (!first) j += ", ";
    first = false;
    j += "{\"id\": \"";
    json_escape(r, &j);
    j += "\"}";
  }
  j += "]}},\n";
  j += "    \"results\": [";
  first = true;
  for (const Diagnostic& d : diags) {
    if (!first) j += ",";
    first = false;
    j += "\n      {\"ruleId\": \"";
    json_escape(d.rule, &j);
    j += "\", \"level\": \"error\", \"message\": {\"text\": \"";
    json_escape(d.message, &j);
    j += "\"}, \"locations\": [{\"physicalLocation\": "
         "{\"artifactLocation\": {\"uri\": \"";
    json_escape(d.file, &j);
    j += "\"}, \"region\": {\"startLine\": " + std::to_string(d.line) +
         "}}}]}";
  }
  j += "\n    ]\n  }]\n}\n";
  std::ofstream ofs(path, std::ios::binary);
  if (!ofs) return false;
  ofs << j;
  return ofs.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> inputs;
  unsigned forced_families = 0;
  bool quiet = false;
  bool stale_mode = false;
  std::string sarif_path;

  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--list-rules") {
      for (const std::string& r : all_rule_names()) std::puts(r.c_str());
      return 0;
    }
    if (arg == "-q") {
      quiet = true;
      continue;
    }
    if (arg == "--stale-suppressions") {
      stale_mode = true;
      continue;
    }
    if (arg == "--sarif") {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "qrdtm_lint: --sarif needs a path\n");
        return 2;
      }
      sarif_path = argv[++a];
      continue;
    }
    if (arg == "--families" || arg == "--rules") {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "qrdtm_lint: %s needs an argument\n",
                     arg.c_str());
        return 2;
      }
      std::stringstream ss(argv[++a]);
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (item == "det") forced_families |= kDet;
        else if (item == "coro") forced_families |= kCoro;
        else if (item == "hot") forced_families |= kHot;
        else if (item == "codec") forced_families |= kCodec;
        else if (item == "buffer") forced_families |= kBuffer;
        else if (item == "epoch") forced_families |= kEpoch;
        else if (item == "all") {
          forced_families |= kDet | kCoro | kHot | kCodec | kBuffer | kEpoch;
        } else {
          std::fprintf(stderr, "qrdtm_lint: unknown rule family '%s'\n",
                       item.c_str());
          return 2;
        }
      }
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "qrdtm_lint: unknown option '%s'\n", arg.c_str());
      return 2;
    }
    inputs.emplace_back(arg);
  }
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "usage: qrdtm_lint [--families det,coro,hot,codec,buffer,"
                 "epoch] [--sarif <path>] [--stale-suppressions] "
                 "[--list-rules] [-q] <file-or-dir>...\n");
    return 2;
  }

  // Gather files.
  std::vector<fs::path> files;
  for (const fs::path& in : inputs) {
    std::error_code ec;
    if (fs::is_directory(in, ec)) {
      for (auto it = fs::recursive_directory_iterator(in, ec);
           it != fs::recursive_directory_iterator(); ++it) {
        const fs::path& p = it->path();
        std::string name = p.filename().string();
        if (it->is_directory() &&
            (name.rfind("build", 0) == 0 || name == ".git")) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && has_source_ext(p)) files.push_back(p);
      }
    } else if (fs::is_regular_file(in, ec)) {
      files.push_back(in);
    } else {
      std::fprintf(stderr, "qrdtm_lint: cannot read '%s'\n",
                   in.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  // Pass 1: lex everything and harvest symbols, grouping by parent
  // directory so cross-file context (wire structs declared in wire.h,
  // codec bodies in wire.cpp, registrations in qr_server.cpp) is visible
  // without leaking names across unrelated subsystems.
  std::vector<FileEntry> entries;
  std::map<std::string, SymbolTable> tables;
  for (const fs::path& f : files) {
    std::ifstream ifs(f, std::ios::binary);
    if (!ifs) {
      std::fprintf(stderr, "qrdtm_lint: cannot open '%s'\n",
                   f.string().c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << ifs.rdbuf();
    FileEntry e;
    e.path = f;
    e.source = std::move(buf).str();
    e.lexed = lex(e.source);
    e.families = forced_families ? forced_families : families_for(f);
    collect_symbols(f.generic_string(), e.lexed,
                    &tables[f.parent_path().generic_string()]);
    entries.push_back(std::move(e));
  }

  // Pass 2: per-file rules.  Pass 3: group-level rules per directory.
  std::vector<Diagnostic> diags;
  std::map<std::string, UsedSuppressions> used;
  std::map<std::string, std::vector<GroupFile>> groups;
  for (const FileEntry& e : entries) {
    const std::string file = e.path.generic_string();
    const std::string dir = e.path.parent_path().generic_string();
    run_rules(file, e.lexed, tables[dir], e.families, &diags, &used[file]);
    groups[dir].push_back(GroupFile{file, &e.lexed, e.families});
  }
  // Free codecs by name across every directory of the run, so an element
  // codec shared between directories (the write-run codec in src/store,
  // called by the messages in src/core) resolves when both are linted
  // together.  A group's own codecs take precedence; among other groups the
  // first directory in sorted order wins.
  SymbolTable run_codecs;
  for (const auto& [dir, table] : tables) {
    for (const auto& [name, body] : table.encoders) {
      if (!body.member) run_codecs.encoders.emplace(name, body);
    }
    for (const auto& [name, body] : table.decoders) {
      if (!body.member) run_codecs.decoders.emplace(name, body);
    }
  }
  for (const auto& [dir, group] : groups) {
    run_group_rules(group, tables[dir], &diags, &used, &run_codecs);
  }

  if (stale_mode) {
    // Audit directives instead of reporting diagnostics: a directive is
    // stale when it names an unknown rule, or when its rule's family ran on
    // the file and the directive absorbed nothing.
    const auto& known = all_rule_names();
    std::size_t stale = 0;
    for (const FileEntry& e : entries) {
      const std::string file = e.path.generic_string();
      const UsedSuppressions& u = used[file];
      for (const Directive& d : e.lexed.directives) {
        for (const std::string& rule : d.rules) {
          if (std::find(known.begin(), known.end(), rule) == known.end()) {
            std::fprintf(stderr,
                         "%s:%d: stale: allow(%s) names an unknown rule\n",
                         file.c_str(), d.line, rule.c_str());
            ++stale;
            continue;
          }
          unsigned fam = family_of_rule(rule);
          if (!(e.families & fam)) continue;  // family inactive: can't judge
          if (!u.count({d.line, rule}) && !u.count({d.line + 1, rule})) {
            std::fprintf(stderr,
                         "%s:%d: stale: allow(%s) no longer suppresses "
                         "anything; remove it (or fix the rule name)\n",
                         file.c_str(), d.line, rule.c_str());
            ++stale;
          }
        }
      }
    }
    std::fprintf(stderr,
                 "qrdtm_lint: %zu file(s), %zu stale suppression(s)\n",
                 entries.size(), stale);
    return stale == 0 ? 0 : 1;
  }

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return a.file != b.file ? a.file < b.file : a.line < b.line;
            });
  if (!quiet) {
    for (const Diagnostic& d : diags) {
      std::fprintf(stderr, "%s:%d: error: [%s] %s\n", d.file.c_str(), d.line,
                   d.rule.c_str(), d.message.c_str());
    }
  }
  if (!sarif_path.empty() && !write_sarif(sarif_path, diags)) {
    std::fprintf(stderr, "qrdtm_lint: cannot write SARIF to '%s'\n",
                 sarif_path.c_str());
    return 2;
  }
  std::fprintf(stderr, "qrdtm_lint: %zu file(s), %zu diagnostic(s)\n",
               entries.size(), diags.size());
  return diags.empty() ? 0 : 1;
}
