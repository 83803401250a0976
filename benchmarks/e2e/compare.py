"""Compare two ``run.py --out`` reports, like with like.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric): the base median, the new
median, their ratio (new / base), the metric's bound and a verdict:

``worse``       the new median is worse than the base by more than the bound
``unresolved``  either file's own repeat spread exceeds the bound, so
                the two medians cannot be told apart at that bound
``better``      the new median is better by more than both files' spread
``same``        anything else

Exits non-zero on any ``worse`` and on any rise in ``failed_share``.
Files that differ in seed, scale factors, window length, ``nproc``,
Python or numpy version, or benchmark version are refused: their
numbers are not comparable.
"""

import json
import sys

#: Report fields that must match for two files to be comparable.
SAME_HOST = ("benchmark_version", "seed", "nproc", "python", "numpy",
             "trace", "smoke")
SAME_WORKLOAD = ("scale", "clients", "procs", "wire", "templates",
                 "seconds")


def mismatches(base, new):
    found = ["%s: %r vs %r" % (key, base.get(key), new.get(key))
             for key in SAME_HOST if base.get(key) != new.get(key)]
    if sorted(base["workloads"]) != sorted(new["workloads"]):
        found.append("workloads: %s vs %s" % (sorted(base["workloads"]),
                                              sorted(new["workloads"])))
        return found
    for name, entry in base["workloads"].items():
        other = new["workloads"][name]["config"]
        found += ["%s.%s: %r vs %r" % (name, key, entry["config"].get(key),
                                       other.get(key))
                  for key in SAME_WORKLOAD
                  if entry["config"].get(key) != other.get(key)]
    return found


def verdict(base, new):
    """(verdict, ratio) for one metric's two summaries."""
    ratio = new["median"] / base["median"]
    worse_by = ratio - 1.0 if base["better"] == "lower" else 1.0 - ratio
    noise = max(base["spread"] or 0.0, new["spread"] or 0.0)
    if noise > base["bound"]:
        return "unresolved", ratio
    if worse_by > base["bound"]:
        return "worse", ratio
    if worse_by < -noise:
        return "better", ratio
    return "same", ratio


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    found = mismatches(base, new)
    if found:
        print("refusing to compare; the reports differ in:\n  "
              + "\n  ".join(found), file=sys.stderr)
        return 2
    bad = False
    print("%-18s %-20s %12s %12s %8s %6s %8s  %s"
          % ("workload", "metric", "base", "new", "new/base", "bound",
             "spread", "verdict"))
    for name, entry in base["workloads"].items():
        other = new["workloads"][name]
        for metric, summary in entry["metrics"].items():
            outcome, ratio = verdict(summary, other["metrics"][metric])
            bad |= outcome == "worse"
            print("%-18s %-20s %12.4f %12.4f %8.3f %6.2f %8.3f  %s"
                  % (name, metric, summary["median"],
                     other["metrics"][metric]["median"], ratio,
                     summary["bound"],
                     max(summary["spread"] or 0.0,
                         other["metrics"][metric]["spread"] or 0.0),
                     outcome))
        if max(other["failed_share"]) > max(entry["failed_share"]):
            bad = True
            print("%-18s failed_share rose: %g -> %g"
                  % (name, max(entry["failed_share"]),
                     max(other["failed_share"])))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
