#!/usr/bin/env python3
"""A/B runner for the repository benchmark, with an A/A arm.

    python3 scripts/ab.py --base <rev> [--change <rev>] [--seeds 21-34]
    python3 scripts/ab.py --self-test

Run from the repository root. Three sides, each a copy under
`target/ab/<label>/`:

- `base`: `git archive` of `--base`;
- `change`: `git archive` of `--change`, or with no `--change` the
  working tree (`git ls-files -co --exclude-standard`, so new files
  come along);
- `aa`: a second archive of `--base`, the A/A arm that measures how far
  two copies of one program drift apart on this host.

Each side is built once through its own `benchmark/run.py`, with its
own `CARGO_TARGET_DIR` (`target/ab/<label>/target`). Then, for every
workload of the base's `BENCHMARK.json` and for its `run_seconds`,
ten base/change pairs and four base/aa pairs run, alternating which
side goes first; each pair takes the next seed of `--seeds`, and the
seed list restarts for every workload. Last, one traced run per
workload on base and change gives the per-layer numbers.

A run that exits non-zero, reads `correct: false` or has `failed > 0`
is reported by name, never dropped. Its readings stay out of the
medians, but its pair still counts: the change does not win it, and a
change with more failed runs than the base claims no gain. Each run's
log goes to `target/ab/logs/`.

For every workload and end-to-end metric of `BENCHMARK.json` (read from
the base side), the report gives each side's median and quartiles, the
per-pair change/base ratios, the change's wins (ties count for
neither), the A/A ratio range, and a verdict:

- `gain`: the change wins at least 9 of every 10 pairs run, failed no
  more runs than the base, and its median beats the base's by more than
  the base's interquartile range;
- `regression`: the change's median is worse than the base's by more
  than the metric's bound;
- `unresolved`: the base's relative interquartile range is wider than
  the bound, unless every change run beats every base run;
- `no regression` otherwise.

Campaign digests (from each run's provenance line) are checked against
the table in the base's `benchmark/README.md` and between sides.

It writes `target/ab/report.json`, prints one Markdown table per
workload, and exits 1 if any run failed, any digest disagreed or any
verdict is `regression`. Standard library only; it never touches the
network.
"""

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.getcwd()
AB = os.path.join(ROOT, "target", "ab")
LOGS = os.path.join(AB, "logs")
# Base/change pairs per workload: a gain needs at least ten, nine of them won.
PAIRS = 10
# Base/aa pairs per workload.
AA_PAIRS = 4


# ---------------------------------------------------------------- statistics


def quartiles(values):
    """(q1, median, q3), as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def beats(a, b, better):
    """Whether reading `a` is strictly better than reading `b`."""
    return a < b if better == "lower" else a > b


def worse_by(change, base, better):
    """How much worse `change` is than `base`, relative to `base`
    (negative when it is better)."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    gap = (change - base) / abs(base)
    return gap if better == "lower" else -gap


def judge(pairs, aa_pairs, better, bound):
    """Statistics and verdict for one metric on one workload.

    `pairs` holds one (base, change) reading per pair run, with None for
    a side whose run failed or lacks the metric; `aa_pairs` are (base,
    aa) readings of the A/A pairs that both succeeded. Each side needs
    at least one reading.
    """
    base = [b for b, _ in pairs if b is not None]
    change = [c for _, c in pairs if c is not None]
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = b_q3 - b_q1
    if b_med == 0:
        rel_iqr = 0.0 if iqr == 0 else float("inf")
    else:
        rel_iqr = iqr / abs(b_med)
    both = [(b, c) for b, c in pairs if b is not None and c is not None]
    ratios = [c / b if b else float("nan") for b, c in both]
    # A pair with a failed side is no win for the change.
    wins = sum(beats(c, b, better) for b, c in both)
    failed_base = len(pairs) - len(base)
    failed_change = len(pairs) - len(change)
    aa = [a / b for b, a in aa_pairs if b]
    all_better = all(beats(c, b, better) for c in change for b in base)
    if (
        wins * 10 >= 9 * len(pairs)
        and failed_change <= failed_base
        and beats(c_med, b_med, better)
        and abs(c_med - b_med) > iqr
    ):
        verdict = "gain"
    elif worse_by(c_med, b_med, better) > bound:
        verdict = "regression"
    elif rel_iqr > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "runs": base},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "runs": change},
        "median_ratio": c_med / b_med if b_med else None,
        "base_rel_iqr": rel_iqr,
        "pair_ratios": ratios,
        "wins": wins,
        "pairs": len(pairs),
        "failed": {"base": failed_base, "change": failed_change},
        "aa_ratio_range": [min(aa), max(aa)] if aa else None,
        "better": better,
        "bound": bound,
        "verdict": verdict,
    }


def reading(run, name):
    """A run's reading of metric `name`, or None when the run failed or
    lacks it."""
    return None if run["failure"] else run["metrics"].get(name)


def metric_rows(pairs, aa_pairs, end_to_end):
    """{metric: judge(...)} for every end-to-end metric of `BENCHMARK.json`
    that both sides read at least once; `pairs` and `aa_pairs` are
    (base run, other run) pairs as `Side.run` returns them."""
    rows = {}
    for m in end_to_end:
        name = m["name"]
        ab = [(reading(b, name), reading(c, name)) for b, c in pairs]
        aa = [(reading(b, name), reading(a, name)) for b, a in aa_pairs]
        aa = [(b, a) for b, a in aa if b is not None and a is not None]
        if any(b is not None for b, _ in ab) and any(c is not None for _, c in ab):
            rows[name] = judge(ab, aa, m["better"], m["bound"])
    return rows


def self_test():
    """Checks the statistics on canned numbers; builds and runs nothing."""
    q = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert q == (2.75, 5.5, 8.25), q
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)

    def pairs(base, change):
        return list(zip(base, change))

    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [80, 81, 79, 80, 82, 78, 80, 81, 79, 80]
    r = judge(pairs(base, faster), [(100, 101), (99, 98)], "lower", 0.24)
    assert r["verdict"] == "gain" and r["wins"] == 10, r
    assert r["aa_ratio_range"] == [98 / 99, 1.01], r["aa_ratio_range"]
    # 8 wins of 10 is no gain, however large the gap.
    mixed = faster[:8] + [120, 120]
    assert judge(pairs(base, mixed), [], "lower", 0.24)["verdict"] == "no regression"
    # Higher is better: the same readings are a regression past the bound.
    assert judge(pairs(base, [x * 0.7 for x in base]), [], "higher", 0.24)["verdict"] == "regression"
    assert judge(pairs(base, [x * 1.3 for x in base]), [], "lower", 0.24)["verdict"] == "regression"
    assert judge(pairs(base, [x * 1.1 for x in base]), [], "lower", 0.24)["verdict"] == "no regression"
    # Ties count for neither side.
    r = judge(pairs([1.0] * 10, [1.0] * 10), [], "higher", 0.24)
    assert (r["wins"], r["verdict"]) == (0, "no regression"), r
    # A base whose spread exceeds the bound cannot show "no regression"...
    noisy = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    assert judge(pairs(noisy, noisy[::-1]), [], "lower", 0.24)["verdict"] == "unresolved"
    # ...unless every change run beats every base run (here by less than
    # the base's IQR, so it is not a gain either).
    r = judge(pairs(noisy, [55, 56, 57, 58, 59, 55, 56, 57, 58, 59]), [], "lower", 0.24)
    assert r["verdict"] == "no regression", r
    r = judge(pairs(noisy, [50] * 10), [], "higher", 0.24)
    assert r["verdict"] == "regression", r

    # Failed runs stay in the count of pairs run. Two failed change runs
    # leave 8 wins of 10 pairs, not 8 of 8: no gain.
    def run(value, failure=None):
        return {"failure": failure, "metrics": {} if failure else {"campaign_s": value}}

    spec = [{"name": "campaign_s", "better": "lower", "bound": 0.24}]
    ab = [(run(b), run(c)) for b, c in zip(base, faster)]
    assert metric_rows(ab, [], spec)["campaign_s"]["verdict"] == "gain"
    ab[3] = (ab[3][0], run(None, "exit 101"))
    ab[7] = (ab[7][0], run(None, "correct: false"))
    r = metric_rows(ab, [], spec)["campaign_s"]
    assert (r["wins"], r["pairs"], r["verdict"]) == (8, 10, "no regression"), r
    assert r["failed"] == {"base": 0, "change": 2}, r
    assert r["change"]["runs"] == faster[:3] + faster[4:7] + faster[8:], r
    # One failed change run leaves 9 wins of 10, but more failures than
    # the base: still no gain.
    ab = [(run(b), run(c)) for b, c in zip(base, faster)]
    ab[0] = (ab[0][0], run(None, "failed: 3"))
    assert metric_rows(ab, [], spec)["campaign_s"]["verdict"] == "no regression"
    # One failed run on each side leaves 8 wins of 10 pairs: no gain.
    ab = [(run(b), run(c)) for b, c in zip(base, faster)]
    ab[0] = (run(None, "exit 1"), ab[0][1])
    ab[1] = (ab[1][0], run(None, "exit 1"))
    r = metric_rows(ab, [], spec)["campaign_s"]
    assert (r["wins"], r["verdict"]) == (8, "no regression"), r
    # A failed base run is no win for the change either.
    ab = [(run(b), run(c)) for b, c in zip(base, faster)]
    ab[0] = (run(None, "exit 1"), ab[0][1])
    r = metric_rows(ab, [(run(100), run(None, "exit 1"))], spec)["campaign_s"]
    assert (r["wins"], r["verdict"], r["aa_ratio_range"]) == (9, "gain", None), r
    # A metric no run of one side reported gets no row.
    assert metric_rows([(run(1.0), run(None, "exit 1"))] * 10, [], spec) == {}
    assert worse_by(0.0, 0.0, "lower") == 0.0
    line = '{"correct": true, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}'
    result = parse_result("cargo noise\n" + line + "\n")
    assert result["correct"] is True and result["failed"] == 0, result
    assert metric_values(result) == {"setup_s": 1.5}
    assert parse_result("no json here\n") is None
    assert metric_values(None) == {}
    table = "| seed | digest |\n|---|---|\n| 21 | `8686746bf2fa7833` |\n"
    assert readme_digests(table) == {21: "8686746bf2fa7833"}
    print("ab.py self-test: ok")
    return 0


# ---------------------------------------------------------------- sides


def git(*args, cwd=ROOT):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True, capture_output=True).stdout


def extract_archive(rev, dest):
    data = git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def copy_worktree(dest):
    names = git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0")
    for name in filter(None, names):
        src = os.path.join(ROOT, name)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        out = os.path.join(dest, name)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        shutil.copy2(src, out)


class Side:
    def __init__(self, label, rev):
        self.label = label
        self.rev = rev
        self.dir = os.path.join(AB, label)
        self.target = os.path.join(self.dir, "target")

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        if self.rev is None:
            copy_worktree(self.dir)
        else:
            extract_archive(self.rev, self.dir)

    def env(self):
        return dict(os.environ, CARGO_TARGET_DIR=self.target)

    def build(self):
        # run.py builds both variants on every call; with no arguments
        # the benchmark itself then exits at once with its usage line.
        log = os.path.join(LOGS, f"build-{self.label}.log")
        with open(log, "w") as f:
            subprocess.run(
                [sys.executable, "benchmark/run.py"], cwd=self.dir, env=self.env(), stdout=f, stderr=f
            )
        for variant in ("plain", "traced"):
            exe = os.path.join(self.target, "dv-benchmark", variant, "release", "dv-benchmark")
            if not os.path.isfile(exe):
                sys.exit(f"ab.py: the {self.label} side's {variant} build failed; see {log}")

    def run(self, workload, seed, seconds, traced):
        mode = "traced" if traced else "plain"
        name = f"{workload} seed {seed} {self.label} {mode}"
        log = os.path.join(LOGS, f"{workload}-seed{seed}-{self.label}-{mode}.log")
        argv = [
            sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if traced else "0",
        ]
        proc = subprocess.run(argv, cwd=self.dir, env=self.env(), capture_output=True, text=True)
        with open(log, "w") as f:
            f.write(proc.stderr)
            f.write(proc.stdout)
        result = parse_result(proc.stdout)
        digest = None
        for line in proc.stderr.splitlines():
            if line.startswith("provenance: "):
                try:
                    digest = json.loads(line[len("provenance: "):]).get("digest")
                except json.JSONDecodeError:
                    pass
        failure = None
        if proc.returncode != 0:
            failure = f"exit {proc.returncode}"
        elif result is None:
            failure = "no result line"
        elif result.get("correct") is not True:
            failure = "correct: false"
        elif result.get("failed", 0) > 0:
            failure = f"failed: {result['failed']}"
        print(f"  {name}: {failure or 'ok'}", file=sys.stderr, flush=True)
        return {
            "name": name,
            "workload": workload,
            "seed": seed,
            "side": self.label,
            "mode": mode,
            "failure": failure,
            "metrics": metric_values(result),
            "digest": digest,
        }


def parse_result(stdout):
    """The benchmark's result object: its last stdout line."""
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def metric_values(result):
    """{name: value} from a result object's `{name: {value, unit}}`."""
    return {k: v["value"] for k, v in (result or {}).get("metrics", {}).items()}


def readme_digests(text):
    return {
        int(m.group(1)): m.group(2)
        for m in re.finditer(r"^\| (\d+) \| `([0-9a-f]{16})` \|$", text, re.MULTILINE)
    }


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


# ---------------------------------------------------------------- report


def fmt(x):
    if x is None:
        return "–"
    if abs(x) >= 1000:
        return f"{x:,.0f}".replace(",", " ")
    return f"{x:.4g}"


def markdown(workload, rows):
    out = [
        f"### {workload}",
        "",
        "| metric | base median [q1, q3] | change median [q1, q3] | change/base | "
        "wins | A/A range | verdict | per-pair ratios |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for metric, r in rows.items():
        b, c = r["base"], r["change"]
        aa = r["aa_ratio_range"]
        out.append(
            f"| `{metric}` | {fmt(b['median'])} [{fmt(b['q1'])}, {fmt(b['q3'])}] "
            f"| {fmt(c['median'])} [{fmt(c['q1'])}, {fmt(c['q3'])}] "
            f"| {fmt(r['median_ratio'])} | {r['wins']}/{r['pairs']} "
            f"| {'–' if aa is None else f'{aa[0]:.3f}–{aa[1]:.3f}'} | {r['verdict']} "
            f"| {', '.join(f'{x:.3f}' for x in r['pair_ratios'])} |"
        )
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="parent revision")
    ap.add_argument("--change", help="changed revision (default: the working tree)")
    ap.add_argument("--seeds", default="21-34", help="e.g. 21-30,41-44")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base:
        ap.error("--base is required")
    seeds = parse_seeds(args.seeds)
    if len(seeds) < PAIRS + AA_PAIRS:
        ap.error(f"{PAIRS + AA_PAIRS} pairs need as many seeds; --seeds gives {len(seeds)}")

    os.makedirs(LOGS, exist_ok=True)
    base = Side("base", args.base)
    change = Side("change", args.change)
    aa = Side("aa", args.base)
    for side in (base, change, aa):
        print(f"preparing and building {side.label} ({side.rev or 'working tree'})", file=sys.stderr)
        side.prepare()
        side.build()
    with open(os.path.join(base.dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(base.dir, "benchmark", "README.md")) as f:
        known = readme_digests(f.read())

    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs = []
    report = {"base": args.base, "change": args.change or "working tree", "workloads": {}}
    for workload in workloads:
        pairs, aa_pairs = [], []
        for i in range(PAIRS + AA_PAIRS):
            other = change if i < PAIRS else aa
            order = (base, other) if i % 2 == 0 else (other, base)
            got = {s.label: s.run(workload, seeds[i], seconds, False) for s in order}
            runs.extend(got.values())
            (pairs if other is change else aa_pairs).append((got["base"], got[other.label]))
        traced = {s.label: s.run(workload, seeds[0], seconds, True) for s in (base, change)}
        runs.extend(traced.values())

        rows = metric_rows(pairs, aa_pairs, bench["end_to_end"])
        zero = {
            label: sorted(k for k, v in r["metrics"].items() if v == 0)
            for label, r in traced.items()
        }
        report["workloads"][workload] = {
            "metrics": rows,
            "traced": {label: r["metrics"] for label, r in traced.items()},
            "traced_zero_metrics": zero,
        }
        print("\n" + markdown(workload, rows))
        for label, names in zero.items():
            print(f"\ntraced {label} run: {len(traced[label]['metrics'])} per-layer metrics, "
                  f"zero: {', '.join(names) or 'none'}")

    failures = [r["name"] + ": " + r["failure"] for r in runs if r["failure"]]
    digest_problems = []
    by_seed = {}
    for r in runs:
        if r["digest"] is None:
            continue
        key = (r["workload"], r["seed"])
        by_seed.setdefault(key, set()).add(r["digest"])
        if r["seed"] in known and r["digest"] != known[r["seed"]]:
            digest_problems.append(f"{r['name']}: digest {r['digest']} != README {known[r['seed']]}")
    for (workload, seed), digests in sorted(by_seed.items()):
        if len(digests) > 1:
            digest_problems.append(f"{workload} seed {seed}: sides disagree {sorted(digests)}")
    report["runs"] = runs
    report["failures"] = failures
    report["digest_problems"] = digest_problems
    report["digests_checked"] = sum(r["digest"] is not None for r in runs)
    with open(os.path.join(AB, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(f"\n{len(runs)} runs, {len(failures)} failed; "
          f"{report['digests_checked']} campaign digests checked, {len(digest_problems)} problems")
    for line in failures + digest_problems:
        print(f"  {line}")
    print(f"wrote {os.path.join(AB, 'report.json')}")
    regressed = any(
        r["verdict"] == "regression" for w in report["workloads"].values() for r in w["metrics"].values()
    )
    return 1 if failures or digest_problems or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
