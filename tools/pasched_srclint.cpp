// pasched srclint: the source scanner for this repository — architecture
// & hot-path rules, lock-order & serialization rules, and allocation &
// layout rules over one lex of the tree, plus the runtime allocation ledger
// that verifies what the scan certifies (PSL401-406, PSL501-505,
// PSL601-606).
//
// Where `pasched audit` and `pasched race` check *executions*, srclint rejects
// the source patterns that make those audits fail before a run exists:
//
//   PSL401  raw sim::Engine access outside the ShardedEngine/EventContext seam
//   PSL402  shard-resident type / mutable field without ownership discipline
//   PSL403  allocation, locking, throw, blocking, or I/O inside PASCHED_HOT
//   PSL404  side effects inside vanishing PASCHED_CHECK/ASSERT arguments
//   PSL405  nondeterminism sources in the deterministic core (sim/kern/net/mpi)
//   PSL406  thread creation outside the ShardedEngine worker pool
//   PSL501  lock-order cycle in the cross-TU lock-order graph      (ERROR)
//   PSL502  lock held across a blocking seam (barrier/wait/drain)  (ERROR)
//   PSL503  false-sharing layout in a shard-shared class           (WARN)
//   PSL504  shared atomic read-modify-written in a hot loop        (WARN)
//   PSL505  coarse mutex over race::Owned single-domain state      (WARN)
//   PSL601  heap allocation in a hot/lifecycle engine function     (ERROR)
//   PSL602  undisciplined container growth on the hot path         (ERROR)
//   PSL603  cache-layout hazard in an event/shard-resident type    (WARN)
//   PSL604  PASCHED_ARENA contract violation                       (ERROR)
//   PSL605  allocation-free region statically certified            (INFO)
//   PSL606  runtime-refuted allocation-free claim                  (ERROR)
//
//   pasched srclint [--root=DIR] [--compile-db=FILE] [--only=PSLnnn[,..]]
//       [--report=FILE] [--json=FILE] [--graph] [--list-rules] [files...]
//   pasched srclint --ledger [--nodes=N] [--workers=N] [--calls=N]
//       [--seed=N] [--max-hot-window-allocs=N]
//   pasched srclint --plant [--fixtures=DIR] [files...]
//
// Scans the tree under --root (default: the current directory), preferring
// the translation units listed in --compile-db (compile_commands.json,
// auto-detected at <root>/build/compile_commands.json) augmented with
// headers. Positional arguments restrict the scan to those root-relative
// files. --graph also prints the lock-order graph.
//
// --ledger then runs the fig5 aggregate-trace scenario on the partitioned
// core (default 8 nodes / 8 workers) once under the allocation ledger and
// cross-checks every PSL605 claim against the observed hot allocations
// (PSL606). --max-hot-window-allocs gates the ledger's headline number; it
// needs --ledger and a -DPASCHED_VALIDATE=ON build.
//
// --plant scans the three planted-violation corpora in place (default
// <root>/tests/{srclint,contend,alloc}/fixtures; --fixtures=DIR scans that
// one corpus instead; positional files restrict each corpus's scan to the
// corpus-relative files it holds) and adds the runtime leg: a deliberately
// allocating hot scope refuting a fabricated allocation-free claim (PSL606).
// CI asserts it exits 1 and names all seventeen rules.
//
// Findings are silenced per line with `// srclint-ok(PSLnnn): reason`;
// honored suppressions are counted in the report so they stay auditable.
//
// Exit status: 0 = no ERROR findings, 1 = ERROR findings or a failed ledger
// gate, 2 = internal model violation, 64 = bad usage.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/ledger.hpp"
#include "analysis/diagnostic.hpp"
#include "check/check.hpp"
#include "driver.hpp"
#include "srclint/runner.hpp"
#include "util/allocgate.hpp"

namespace pasched::tools {

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

struct LedgerRun {
  alloc::Ledger ledger;
  alloc::AllocLedgerReport report;
  bool ran = false;
};

/// The --plant runtime leg: a hot scope under a Core site that allocates on
/// purpose, checked against a fabricated allocation-free claim on that site.
void plant_ledger(srclint::SrclintReport& rep, LedgerRun& led) {
  led.ledger.reset();
  led.ledger.install();
  {
    PASCHED_ALLOC_HOT_SCOPE("PlantedHotPath");
    std::vector<int> spill;
    for (int i = 0; i < 64; ++i) spill.push_back(i);
    static volatile const void* sink;  // keep the allocation observable
    sink = spill.data();
    static_cast<void>(sink);
  }
  led.ledger.remove();
  led.report = led.ledger.report();
  std::vector<alloc::AllocClaim> claims = rep.alloc_claims;
  claims.push_back(alloc::AllocClaim{
      "PlantedHotPath", "tests/alloc/fixtures/planted-claim", 1});
  rep.add(led.ledger.check_claims(claims));
  led.ran = true;
}

/// Runs the fig5 prototype scenario on the partitioned core once, with the
/// allocation ledger installed for exactly the duration of the run.
void tree_ledger(const ScenarioFlags& p, srclint::SrclintReport& rep,
                 LedgerRun& led) {
  Scenario s = p.build(/*prototype=*/true);
  s.cfg.parallel = p.workers;
  core::Simulation sim(s.cfg, s.factory);
  led.ledger.reset();
  led.ledger.install();
  sim.run();
  led.ledger.remove();
  led.report = led.ledger.report();
  rep.add(led.ledger.check_claims(rep.alloc_claims));
  led.ran = true;
}

void print_ledger(std::ostream& os, const LedgerRun& led) {
  os << led.report.str();
  if (led.report.sites.empty())
    os << "pasched-srclint: allocation ledger recorded nothing (no "
          "attributed allocation observed)\n";
}

}  // namespace

int srclint_main(const util::Flags& flags) {
  if (flags.get_bool("list-rules", false)) {
    for (const analysis::RuleInfo& r : analysis::all_rules()) {
      const std::string id(r.id);
      if (id.size() == 6 && id.compare(0, 3, "PSL") == 0 && id[3] >= '4' &&
          id[3] <= '6')
        std::cout << id << "  " << analysis::to_string(r.severity)
                  << "\n    invariant: " << r.invariant
                  << "\n    paper:     " << r.paper_ref << "\n";
    }
    return 0;
  }

  srclint::SrclintOptions opts;
  opts.root = flags.get("root", ".");
  const bool plant = flags.get_bool("plant", false);
  const bool ledger_mode = flags.get_bool("ledger", false);
  std::vector<std::string> corpora;
  if (plant) {
    const std::filesystem::path tests =
        std::filesystem::path(opts.root) / "tests";
    corpora = flags.has("fixtures")
                  ? std::vector<std::string>{flags.get("fixtures", "")}
                  : std::vector<std::string>{
                        (tests / "srclint/fixtures").string(),
                        (tests / "contend/fixtures").string(),
                        (tests / "alloc/fixtures").string()};
    for (const std::string& c : corpora) {
      if (!std::filesystem::is_directory(c))
        throw util::FlagError("fixture corpus not found at " + c);
    }
    // Named files are paths relative to whichever corpus holds them.
    for (const std::string& rel : flags.positional()) {
      if (std::none_of(corpora.begin(), corpora.end(),
                       [&](const std::string& c) {
                         return std::filesystem::exists(
                             std::filesystem::path(c) / rel);
                       }))
        throw util::FlagError(rel + " is in no fixture corpus");
    }
  } else {
    opts.compile_db = flags.get("compile-db", "");
    if (opts.compile_db.empty()) {
      const std::filesystem::path guess =
          std::filesystem::path(opts.root) / "build/compile_commands.json";
      if (std::filesystem::exists(guess)) opts.compile_db = guess.string();
    }
  }
  opts.select.only = split_commas(flags.get("only", ""));
  for (const std::string& id : opts.select.only) {
    if (analysis::find_rule(id) == nullptr)
      throw util::FlagError("unknown rule " + id);
  }

  // fig5's cluster size, one worker per node shard (parallel8).
  ScenarioFlags lp;
  lp.nodes = 8;
  lp.workers = 8;
  lp.parse(flags, 2);
  const long long max_hot = flags.get_int("max-hot-window-allocs", -1);
  // A gate that cannot see a ledger would pass vacuously: refuse it.
  if (max_hot >= 0 && !ledger_mode)
    throw util::FlagError(
        "ledger gates (--max-hot-window-allocs) need --ledger");
  if (max_hot >= 0 && !PASCHED_VALIDATE_ENABLED)
    throw util::FlagError(
        "the ledger gate needs a -DPASCHED_VALIDATE=ON build (the operator "
        "new/delete hook is compiled out)");

  srclint::SrclintReport rep;
  LedgerRun led;
  try {
    if (plant) {
      for (const std::string& c : corpora) {
        opts.root = c;
        if (flags.positional().empty()) {
          rep.merge(srclint::run_tree(opts));
          continue;
        }
        std::vector<std::string> here;
        for (const std::string& rel : flags.positional())
          if (std::filesystem::exists(std::filesystem::path(c) / rel))
            here.push_back(rel);
        if (!here.empty()) rep.merge(srclint::run_files(opts, here));
      }
    } else if (!flags.positional().empty()) {
      rep = srclint::run_files(opts, flags.positional());
    } else {
      rep = srclint::run_tree(opts);
    }
    if (PASCHED_VALIDATE_ENABLED && plant) plant_ledger(rep, led);
    if (PASCHED_VALIDATE_ENABLED && ledger_mode && !plant)
      tree_ledger(lp, rep, led);
  } catch (const check::CheckError&) {
    throw;  // the driver's exit 2
  } catch (const std::exception& e) {
    std::cerr << "pasched-srclint: " << e.what() << "\n";
    return 64;
  }

  std::cout << rep.str();
  if (flags.get_bool("graph", false)) {
    std::cout << "lock-order graph (" << rep.graph.size() << " edges):\n";
    for (const std::string& e : rep.graph) std::cout << "  " << e << "\n";
  }
  if (led.ran) {
    print_ledger(std::cout, led);
  } else if (plant || ledger_mode) {
    std::cout << "pasched-srclint: allocation ledger unavailable under "
                 "-DPASCHED_VALIDATE=OFF (the operator new/delete hook is "
                 "compiled out)"
              << (plant ? "; PSL606 leg skipped" : "") << "\n";
  }

  std::ostringstream text;
  text << rep.str();
  if (led.ran) print_ledger(text, led);
  std::string js = rep.json();
  if (led.ran) {
    // Splice the ledger object into the report before the closing brace.
    js.insert(js.rfind("\n}"),
              ",\n  \"allocation_ledger\": " + led.report.json(2));
  }

  // Regression gate (the nightly CI wiring). hot_window_allocs counts
  // hot-phase heap traffic on Core (engine/kernel bookkeeping) sites; the
  // event slab and scratch-reuse discipline exist to hold it at zero.
  int rc = 0;
  if (max_hot >= 0 &&
      led.report.hot_window_allocs > static_cast<std::uint64_t>(max_hot)) {
    std::cout << "pasched-srclint: FAIL (hot_window_allocs "
              << led.report.hot_window_allocs << " > " << max_hot << ")\n";
    rc = 1;
  }
  if (rc == 0 && analysis::any_errors(rep.findings)) rc = 1;

  rc = util::write_output("pasched-srclint", flags.get("report", ""),
                          "report", text.str(), rc);
  rc = util::write_output("pasched-srclint", flags.get("json", ""), "json",
                          js, rc);
  if (rc == 0 && rep.clean()) std::cout << "pasched-srclint: PASS\n";
  return rc;
}

}  // namespace pasched::tools
