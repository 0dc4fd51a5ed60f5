#!/usr/bin/env python3
"""Repo-specific lint for the HPM counter plumbing.

The POWER2 monitor model threads each of the 22 Table 1 counters through
three layers that the compiler cannot check against each other:

  1. the ``HpmCounter`` enum (src/hpm/events.hpp),
  2. the Table 1 metadata array ``kTable`` (src/hpm/events.cpp),
  3. the emit sites in ``PerformanceMonitor::accumulate``
     (src/hpm/monitor.cpp).

A counter that exists in the enum but is never emitted silently reads as
zero for a whole campaign -- exactly the class of bug behind the paper's
divide-counter pathology.  This lint enforces:

  * every enum member has a ``kTable`` entry and an emit site;
  * ``kTable`` carries exactly ``kNumCounters`` entries;
  * raw 32-bit register access (``.raw()`` / ``wrap_delta``) stays inside
    the wrap-handling module (src/rs2hpm/snapshot.*) -- anywhere else,
    arithmetic on wrapped registers is a latent mod-2^32 bug;
  * every data member of the counter-carrying structs has an in-class
    initializer, so a partially filled struct can never leak
    indeterminate counts into the accounting identities;
  * every telemetry metric name in src/ matches ``p2sim_[a-z0-9_]+`` and
    is registered at exactly one site -- a second registration site could
    silently diverge in kind or help text, and a misnamed metric throws at
    runtime in the middle of a campaign;
  * the signature field table (src/power2/field_table.hpp) exactly
    partitions the ``EventCounts`` members into scaled rows and declared
    unscaled fields -- a counter missing from both would silently stay
    zero under the closed-form accrual path and the on-disk signature
    store, and every row's rate member must exist on ``EventSignature``.

Run from the repo root:  python3 tools/lint_events.py
Self-check the linter:   python3 tools/lint_events.py --self-test
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

EVENTS_HPP = "src/hpm/events.hpp"
EVENTS_CPP = "src/hpm/events.cpp"
MONITOR_CPP = "src/hpm/monitor.cpp"
EVENT_COUNTS_HPP = "src/power2/event_counts.hpp"
FIELD_TABLE_HPP = "src/power2/field_table.hpp"
SIGNATURE_HPP = "src/power2/signature.hpp"

# Wrap correction is this module's whole job; raw register access is legal
# only here.
RAW_ACCESS_ALLOWLIST = (
    "src/rs2hpm/snapshot.hpp",
    "src/rs2hpm/snapshot.cpp",
)

# Structs whose members travel through counter arithmetic; every field must
# be value-initialized in-class.
INIT_CHECKED_HEADERS = (
    "src/power2/event_counts.hpp",
    "src/power2/signature.hpp",
    "src/hpm/monitor.hpp",
    "src/rs2hpm/snapshot.hpp",
    "src/rs2hpm/derived.hpp",
    "src/rs2hpm/daemon.hpp",
    "src/rs2hpm/job_monitor.hpp",
    # Fault-injection rates and the loss-reconciliation tallies: an
    # indeterminate probability or counter here silently breaks the
    # "every injected fault accounted for" identity.
    "src/fault/fault.hpp",
    "src/analysis/loss.hpp",
    # Telemetry carries campaign tallies too: an indeterminate field in a
    # health sample or snapshot would poison the dashboard reconciliation.
    "src/telemetry/health.hpp",
    "src/telemetry/reporter.hpp",
    # The parallel engine: an indeterminate lane tally, lane output or
    # pool bookkeeping field would surface as thread-count-dependent
    # results, which the bit-identity contract forbids.
    "src/util/task_pool.hpp",
    "src/workload/lane.hpp",
    # Crash consistency: an indeterminate offset in the checkpoint reader
    # or an uninitialized resume interval would turn a clean restart into
    # silent state divergence.
    "src/util/ckpt.hpp",
    "src/workload/checkpoint.hpp",
    # The monitoring plane: request/response fields, server bookkeeping and
    # the service's job-ring cursors cross the driver/HTTP-loop thread
    # boundary; an indeterminate status code or ring index here would be a
    # use-of-uninitialized on every scrape.
    "src/telemetry/service.hpp",
    "src/util/http_server.hpp",
    "src/util/http_client.hpp",
    # The columnar archive: an indeterminate chunk directory field,
    # report counter or scan statistic would corrupt the on-disk format
    # or mis-render a query; the byte-identity and fidelity contracts
    # both assume every field starts defined.
    "src/archive/format.hpp",
    "src/archive/writer.hpp",
    "src/archive/reader.hpp",
    "src/archive/query.hpp",
)

# Telemetry metric names: full-string shape every registration must obey
# (the registry also enforces this at runtime; the lint catches it before a
# campaign does) and the literal-site scanner.  Only the registry
# implementation itself is excluded -- it holds the name-shape prefix
# constant, not registration sites.  The p2sim_lane_* counters (the
# driver's fold) and the p2sim_server_* monitoring metrics (service.cpp)
# ARE scanned: each must have exactly one registration site like any
# other metric.
METRIC_NAME_RE = re.compile(r"^p2sim_[a-z0-9_]+$")
_METRIC_LITERAL_RE = re.compile(r'"(p2sim_[^"]*)"')
METRIC_SCAN_EXCLUDE = ("src/telemetry/metrics.",)

# Only these member types are indeterminate without an initializer; class
# types (vectors, maps, mutexes) default-construct to a defined state.
_ARITHMETIC_TYPE_RE = re.compile(
    r"\b(u?int\d*_t|std::u?int\d+_t|size_t|std::size_t|double|float|bool|"
    r"char|int|long|short|unsigned|signed)\b|std::array<"
)


def parse_enum_members(text: str) -> list[str]:
    """Members of ``enum class HpmCounter`` in declaration order."""
    m = re.search(r"enum class HpmCounter[^{]*\{(.*?)\};", text, re.DOTALL)
    if not m:
        return []
    members = []
    for line in m.group(1).splitlines():
        line = line.split("//")[0].strip()
        mm = re.match(r"(k[A-Za-z0-9]+)\s*(?:=\s*\d+)?\s*,?", line)
        if mm:
            members.append(mm.group(1))
    return members


def parse_num_counters(text: str) -> int | None:
    m = re.search(r"kNumCounters\s*=\s*(\d+)", text)
    return int(m.group(1)) if m else None


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def check_enum_coverage(root: pathlib.Path) -> list[str]:
    problems: list[str] = []
    hpp = (root / EVENTS_HPP).read_text()
    cpp = strip_comments((root / EVENTS_CPP).read_text())
    mon = strip_comments((root / MONITOR_CPP).read_text())

    members = parse_enum_members(hpp)
    if not members:
        return [f"{EVENTS_HPP}: could not parse HpmCounter enum"]

    declared = parse_num_counters(hpp)
    if declared is not None and declared != len(members):
        problems.append(
            f"{EVENTS_HPP}: kNumCounters = {declared} but the HpmCounter "
            f"enum has {len(members)} members"
        )

    table_refs = re.findall(r"HpmCounter::(k[A-Za-z0-9]+)", cpp)
    if declared is not None and len(table_refs) != declared:
        problems.append(
            f"{EVENTS_CPP}: kTable lists {len(table_refs)} counters, "
            f"expected kNumCounters = {declared}"
        )
    # Aliases (kCommWaitSlot / kIoWaitSlot) resolve to enum members, so an
    # emit through an alias still covers the underlying counter.
    aliases = dict(
        re.findall(
            r"HpmCounter\s+(k[A-Za-z0-9]+)\s*=\s*HpmCounter::(k[A-Za-z0-9]+)",
            strip_comments(hpp),
        )
    )
    emitted = set(re.findall(r"HpmCounter::(k[A-Za-z0-9]+)", mon))
    for alias_name, target in aliases.items():
        if re.search(rf"\b{alias_name}\b", mon):
            emitted.add(target)

    for member in members:
        if member not in table_refs:
            problems.append(
                f"{EVENTS_CPP}: HpmCounter::{member} has no kTable entry "
                f"(no Table 1 label/slot metadata)"
            )
        if member not in emitted:
            problems.append(
                f"{MONITOR_CPP}: HpmCounter::{member} is never emitted in "
                f"PerformanceMonitor::accumulate -- it would read zero for "
                f"a whole campaign"
            )
    return problems


def check_raw_access(root: pathlib.Path) -> list[str]:
    problems: list[str] = []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        if rel in RAW_ACCESS_ALLOWLIST:
            continue
        text = strip_comments(path.read_text())
        for i, line in enumerate(text.splitlines(), start=1):
            if re.search(r"\.raw\(\)", line) or "wrap_delta(" in line:
                problems.append(
                    f"{rel}:{i}: raw 32-bit counter register access outside "
                    f"the wrap-handling module (rs2hpm/snapshot); use "
                    f"ExtendedCounters totals instead"
                )
    return problems


# A data-member declaration: type tokens then one or more identifiers,
# terminated by ';'.  Lines with parentheses and no initializer are taken
# to be function declarations.
_MEMBER_RE = re.compile(
    r"^(?:const\s+)?[A-Za-z_][\w:<>,\s\*&]*?[\s&\*]"
    r"([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*;\s*$"
)
_SKIP_RE = re.compile(
    r"^\s*(using|typedef|friend|static|enum|struct|class|public|private|"
    r"protected|template|explicit|return|#)"
)


def check_member_init(root: pathlib.Path) -> list[str]:
    problems: list[str] = []
    for rel in INIT_CHECKED_HEADERS:
        path = root / rel
        if not path.exists():
            problems.append(f"{rel}: listed for member-init lint but missing")
            continue
        text = strip_comments(path.read_text())
        struct_name = None
        depth_at_struct = None
        depth = 0
        for i, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.strip()
            m = re.match(r"(?:struct|class)\s+([A-Za-z_]\w*)[^;]*\{", line)
            if m and struct_name is None:
                struct_name = m.group(1)
                depth_at_struct = depth
            depth += raw_line.count("{") - raw_line.count("}")
            if struct_name is not None and depth <= depth_at_struct:
                struct_name = None
                continue
            if struct_name is None or _SKIP_RE.match(line):
                continue
            # Only flat member declarations: inside the struct body proper,
            # not nested inside a member function.
            if depth != depth_at_struct + 1:
                continue
            if "=" in line or re.search(r"\{.*\}\s*;", line):
                continue  # has an initializer
            if "(" in line:
                continue  # function declaration / constructor
            # Containers (vector/map/...) default-construct to a defined
            # state even when their element type is arithmetic; only bare
            # arithmetic members and std::array are indeterminate.
            if "<" in line and not re.match(
                    r"^(?:mutable\s+|const\s+)*std::array<", line):
                continue
            if not _ARITHMETIC_TYPE_RE.search(line):
                continue  # class-type member: default-constructed, defined
            m = _MEMBER_RE.match(line)
            if m:
                names = m.group(1)
                problems.append(
                    f"{rel}:{i}: member '{names}' of {struct_name} has no "
                    f"in-class initializer; indeterminate counts would "
                    f"poison the accounting identities"
                )
    return problems


_TABLE_ROW_RE = re.compile(
    r'\{\s*"(\w+)"\s*,\s*&EventSignature::(\w+)\s*,\s*&EventCounts::(\w+)\s*,?\s*\}'
)


def check_field_table(root: pathlib.Path) -> list[str]:
    """kScaledFields + kUnscaledFields exactly partition EventCounts.

    The closed-form accrual path and the signature store iterate the table
    instead of naming fields, so an EventCounts member absent from both
    lists would silently read zero for a whole campaign -- the same defect
    class as a missing monitor emit site, one layer down.
    """
    problems: list[str] = []
    counts_text = strip_comments((root / EVENT_COUNTS_HPP).read_text())
    table_text = strip_comments((root / FIELD_TABLE_HPP).read_text())
    sig_text = strip_comments((root / SIGNATURE_HPP).read_text())

    m = re.search(r"struct EventCounts\s*\{(.*?)\n\};", counts_text, re.DOTALL)
    if not m:
        return [f"{EVENT_COUNTS_HPP}: could not parse struct EventCounts"]
    members = []
    for line in m.group(1).splitlines():
        line = line.strip()
        if "(" in line:
            continue  # derived-sum accessors, not data
        mm = re.match(r"std::uint64_t\s+(\w+)\s*=", line)
        if mm:
            members.append(mm.group(1))
    if not members:
        return [f"{EVENT_COUNTS_HPP}: found no EventCounts data members"]

    rows = _TABLE_ROW_RE.findall(table_text)
    if not rows:
        return [f"{FIELD_TABLE_HPP}: could not parse any kScaledFields rows"]
    um = re.search(r"kUnscaledFields\s*=\s*\{(.*?)\}\s*;", table_text,
                   re.DOTALL)
    unscaled = re.findall(r'"(\w+)"', um.group(1)) if um else []

    sm = re.search(r"struct EventSignature\s*\{(.*?)\n\};", sig_text,
                   re.DOTALL)
    sig_members = (
        set(re.findall(r"(\w+)\s*=\s*0(?:\.0)?\s*[,;]", sm.group(1)))
        if sm else set()
    )

    declared = re.search(r"std::array<ScaledField,\s*(\d+)>", table_text)
    if declared is not None and int(declared.group(1)) != len(rows):
        problems.append(
            f"{FIELD_TABLE_HPP}: kScaledFields declares "
            f"{declared.group(1)} rows but defines {len(rows)}"
        )

    scaled = [counter for _, _, counter in rows]
    for name, rate, counter in rows:
        if name != counter:
            problems.append(
                f"{FIELD_TABLE_HPP}: row {name!r} names counter "
                f"EventCounts::{counter}; the store-format name must match "
                f"the counter member"
            )
        if rate not in sig_members:
            problems.append(
                f"{FIELD_TABLE_HPP}: row {name!r} references "
                f"EventSignature::{rate}, which {SIGNATURE_HPP} does not "
                f"declare"
            )

    covered: dict[str, int] = {}
    for name in scaled + unscaled:
        covered[name] = covered.get(name, 0) + 1
        if name not in members:
            problems.append(
                f"{FIELD_TABLE_HPP}: {name!r} is not an EventCounts member"
            )
    for name, times in covered.items():
        if times > 1:
            problems.append(
                f"{FIELD_TABLE_HPP}: {name!r} appears {times} times across "
                f"kScaledFields and kUnscaledFields; the lists must "
                f"partition EventCounts"
            )
    for member in members:
        if member not in covered:
            problems.append(
                f"{FIELD_TABLE_HPP}: EventCounts::{member} is not covered "
                f"by the field table (neither a kScaledFields row nor a "
                f"kUnscaledFields entry) -- the closed-form accrual path "
                f"and the signature store would silently drop it"
            )
    return problems


def check_metric_names(root: pathlib.Path) -> list[str]:
    """Every p2sim_* metric literal in src/ is well-formed and unique.

    Uniqueness is per-site, not per-name-string: a metric registered from
    two places can diverge in kind or help text, and the second site would
    throw std::invalid_argument mid-campaign on a kind clash.  Comment
    stripping runs first so documentation may mention metric names freely.
    """
    problems: list[str] = []
    sites: dict[str, list[str]] = {}
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith(METRIC_SCAN_EXCLUDE):
            continue
        text = strip_comments(path.read_text())
        for i, line in enumerate(text.splitlines(), start=1):
            for name in _METRIC_LITERAL_RE.findall(line):
                where = f"{rel}:{i}"
                if not METRIC_NAME_RE.match(name):
                    problems.append(
                        f"{where}: metric name {name!r} violates "
                        f"p2sim_[a-z0-9_]+ (lowercase, digits, underscores)"
                    )
                sites.setdefault(name, []).append(where)
    for name, where in sorted(sites.items()):
        if len(where) > 1:
            problems.append(
                f"metric {name!r} registered at {len(where)} sites "
                f"({', '.join(where)}); each metric must have exactly one "
                f"registration site"
            )
    return problems


def run_lint(root: pathlib.Path) -> int:
    if not (root / EVENTS_HPP).is_file():
        print(
            f"lint_events: {root} does not look like the p2sim source tree "
            f"(missing {EVENTS_HPP})",
            file=sys.stderr,
        )
        return 2
    problems = (
        check_enum_coverage(root)
        + check_raw_access(root)
        + check_member_init(root)
        + check_metric_names(root)
        + check_field_table(root)
    )
    for p in problems:
        print(f"lint_events: {p}", file=sys.stderr)
    if problems:
        print(f"lint_events: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("lint_events: OK")
    return 0


def self_test() -> int:
    """Prove the linter detects the defect classes it exists to catch."""
    import tempfile

    failures = []

    def scenario(name, mutate, expect_substr):
        with tempfile.TemporaryDirectory() as td:
            tmp = pathlib.Path(td)
            for rel in (EVENTS_HPP, EVENTS_CPP, MONITOR_CPP,
                        EVENT_COUNTS_HPP, FIELD_TABLE_HPP):
                dest = tmp / rel
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_text((REPO / rel).read_text())
            for rel in INIT_CHECKED_HEADERS + RAW_ACCESS_ALLOWLIST:
                src = REPO / rel
                if src.exists():
                    dest = tmp / rel
                    dest.parent.mkdir(parents=True, exist_ok=True)
                    dest.write_text(src.read_text())
            mutate(tmp)
            problems = (
                check_enum_coverage(tmp)
                + check_raw_access(tmp)
                + check_member_init(tmp)
                + check_metric_names(tmp)
                + check_field_table(tmp)
            )
            if not any(expect_substr in p for p in problems):
                failures.append(
                    f"{name}: expected a problem containing "
                    f"{expect_substr!r}, got {problems!r}"
                )

    def drop_table_entry(tmp):
        p = tmp / EVENTS_CPP
        text = re.sub(r"\{HpmCounter::kDmaWrite.*?\},\n", "",
                      p.read_text(), flags=re.DOTALL)
        p.write_text(text)

    def drop_emit_site(tmp):
        p = tmp / MONITOR_CPP
        text = p.read_text()
        p.write_text(
            text.replace(
                "adds[index_of(HpmCounter::kDcacheStore)] += "
                "ev.dcache_store;",
                "",
            )
        )

    def add_raw_access(tmp):
        p = tmp / "src/hpm/monitor.cpp"
        p.write_text(
            p.read_text()
            + "\n// bad: std::uint64_t x = b.raw()[0] + 1;\n"
            + "inline int bad(p2sim::hpm::CounterBank& b)"
            + " { return int(b.raw()[0]); }\n"
        )

    def drop_initializer(tmp):
        p = tmp / "src/power2/event_counts.hpp"
        p.write_text(
            p.read_text().replace(
                "std::uint64_t cycles = 0;", "std::uint64_t cycles;", 1
            )
        )

    def drop_fault_rate_initializer(tmp):
        p = tmp / "src/fault/fault.hpp"
        p.write_text(
            p.read_text().replace(
                "std::int64_t node_crashes = 0;",
                "std::int64_t node_crashes;", 1
            )
        )

    def drop_loss_tally_initializer(tmp):
        p = tmp / "src/analysis/loss.hpp"
        p.write_text(
            p.read_text().replace(
                "double mean_coverage = 0.0;", "double mean_coverage;", 1
            )
        )

    def copy_in(tmp, rel):
        dest = tmp / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text((REPO / rel).read_text())
        return dest

    def bad_metric_name(tmp):
        p = copy_in(tmp, "src/pbs/scheduler.cpp")
        p.write_text(
            p.read_text().replace(
                '"p2sim_sched_queue_depth"', '"p2sim_Sched-Queue"', 1
            )
        )

    def duplicate_metric_site(tmp):
        copy_in(tmp, "src/pbs/scheduler.cpp")
        p = copy_in(tmp, "src/rs2hpm/daemon.cpp")
        p.write_text(
            p.read_text().replace(
                '"p2sim_daemon_coverage"', '"p2sim_sched_queue_depth"', 1
            )
        )

    def drop_health_initializer(tmp):
        p = tmp / "src/telemetry/health.hpp"
        p.write_text(
            p.read_text().replace(
                "std::int64_t faults_injected = 0;",
                "std::int64_t faults_injected;", 1
            )
        )

    scenario("missing kTable entry", drop_table_entry, "no kTable entry")
    scenario("missing emit site", drop_emit_site, "never emitted")
    scenario("raw access outside snapshot", add_raw_access, "raw 32-bit")
    scenario("missing member init", drop_initializer, "in-class initializer")
    scenario("missing fault-log init", drop_fault_rate_initializer,
             "in-class initializer")
    scenario("missing loss-tally init", drop_loss_tally_initializer,
             "in-class initializer")
    scenario("bad metric name", bad_metric_name, "violates p2sim_")
    scenario("duplicate metric site", duplicate_metric_site,
             "registration site")
    def drop_pool_initializer(tmp):
        p = tmp / "src/util/task_pool.hpp"
        p.write_text(
            p.read_text().replace("int threads_ = 1;", "int threads_;", 1)
        )

    def drop_lane_output_initializer(tmp):
        p = tmp / "src/workload/lane.hpp"
        p.write_text(
            p.read_text().replace(
                "double interval_busy_s = 0.0;",
                "double interval_busy_s;", 1
            )
        )

    def drop_service_ring_initializer(tmp):
        p = tmp / "src/telemetry/service.hpp"
        p.write_text(
            p.read_text().replace(
                "std::size_t max_job_samples = 4096;",
                "std::size_t max_job_samples;", 1
            )
        )

    def drop_http_status_initializer(tmp):
        p = tmp / "src/util/http_server.hpp"
        p.write_text(
            p.read_text().replace("int status = 200;", "int status;", 1)
        )

    def duplicate_server_metric_site(tmp):
        p = tmp / "src/telemetry/service.hpp"
        p.write_text(
            p.read_text()
            + 'inline const char* kDupA = "p2sim_server_requests_total";\n'
            + 'inline const char* kDupB = "p2sim_server_requests_total";\n'
        )

    scenario("missing health-sample init", drop_health_initializer,
             "in-class initializer")
    scenario("missing task-pool init", drop_pool_initializer,
             "in-class initializer")
    scenario("missing lane-output init", drop_lane_output_initializer,
             "in-class initializer")
    scenario("missing monitor-service init", drop_service_ring_initializer,
             "in-class initializer")
    scenario("missing http-response init", drop_http_status_initializer,
             "in-class initializer")
    scenario("duplicate server metric site", duplicate_server_metric_site,
             "registration site")

    def drop_field_table_row(tmp):
        p = tmp / FIELD_TABLE_HPP
        text = re.sub(
            r'\{"dcache_store".*?\},\n', "", p.read_text(), flags=re.DOTALL
        )
        p.write_text(re.sub(r"std::array<ScaledField, 23>",
                            "std::array<ScaledField, 22>", text))

    def misspell_unscaled_field(tmp):
        p = tmp / FIELD_TABLE_HPP
        p.write_text(p.read_text().replace('"dma_read",', '"dma_red",', 1))

    def mismatch_row_name(tmp):
        p = tmp / FIELD_TABLE_HPP
        p.write_text(
            p.read_text().replace(
                '{"tlb_miss", &EventSignature::tlb_miss,',
                '{"tlb_misses", &EventSignature::tlb_miss,', 1
            )
        )

    def duplicate_coverage(tmp):
        p = tmp / FIELD_TABLE_HPP
        p.write_text(
            p.read_text().replace('"dma_read",', '"dma_read",\n    "cycles",',
                                  1)
        )

    scenario("field-table row dropped", drop_field_table_row,
             "not covered by the field table")
    scenario("unscaled field misspelled", misspell_unscaled_field,
             "is not an EventCounts member")
    scenario("field-table name mismatch", mismatch_row_name,
             "the store-format name must match")
    scenario("field covered twice", duplicate_coverage,
             "must partition EventCounts")

    # The pristine tree must be clean, or the lint gate is vacuous.
    rc = run_lint(REPO)
    if rc != 0:
        failures.append("pristine tree failed the lint")

    for f in failures:
        print(f"self-test FAILED: {f}", file=sys.stderr)
    if failures:
        return 1
    print("lint_events: self-test OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--self-test", action="store_true",
                    help="verify the linter catches seeded defects")
    ap.add_argument("--root", type=pathlib.Path, default=REPO,
                    help="repo root to lint (default: this repo)")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    return run_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
