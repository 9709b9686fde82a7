#!/usr/bin/env python3
"""Gate benchmark reports: regressions vs a committed baseline, and ordering.

All files are JSON. A file either carries a ``results`` list (the
``BENCH_gateway.json`` / ``BENCH_ctrl.json`` shape), from which entries
are picked with ``--select key=value``, or it is a single flat object
(the ``cdba-cli serve --summary`` shape) read as the entry directly.
``--list NAME`` reads a different top-level list (e.g. the ``checkpoint``
section of ``BENCH_ctrl.json``); ``--lower-better`` flips the regression
direction for latency/size metrics, failing when
``measured > baseline * (1 + tolerance)``.

Three modes:

Single-entry regression gate (the original mode)::

    bench_gate.py BASELINE MEASURED --metric ticks_per_sec \\
        [--select connections=16] [--tolerance 0.30]

  Exits 1 if ``measured < baseline * (1 - tolerance)``.

Matrix regression gate — every measured entry against its baseline
counterpart, matched on the listed keys::

    bench_gate.py BASELINE MEASURED --metric ticks_per_sec \\
        --matrix label,sessions [--tolerance 0.30]

  Measured entries with no baseline counterpart are skipped (CI smoke
  runs measure a subset of the committed matrix, and the matrix's row
  set is host-gated — ``inline/s1`` rows appear everywhere,
  ``threaded/*`` rows only on multi-core hosts); any matched entry
  below its floor fails the gate. When both reports record a ``cores``
  field and they differ, the whole matrix gate is skipped with a
  notice: a host with a different core count measures a different row
  set at incomparable speeds, so the first report from the new
  hardware becomes the baseline instead of being gated against the
  old one.

Ordering (inversion) gate — one file, two entries, strict inequality::

    bench_gate.py MEASURED --metric ticks_per_sec --select sessions=10000 \\
        --exceeds label=threaded/s4/d4 --over label=inline/s1 [--min-cores 2]

  Exits 1 unless the ``--exceeds`` entry's metric strictly exceeds the
  ``--over`` entry's. The ordering is a statement about parallel
  hardware — shard threads (``threaded/*`` over ``inline/s1``) — so
  when the report records a ``cores`` field below ``--min-cores`` the
  check is skipped with a notice instead of asserting parallelism a
  single-core host cannot exhibit. The ``threaded/*`` rows themselves
  only exist in multi-core reports, so the cores check also keeps the
  selector from demanding a row a single-core host never measures.

Faster-than-baseline results always pass: the regression gates are
one-sided, catching slowdowns only. And a brand-new bench passes too:
a missing baseline file, or a matrix where no measured entry has a
baseline counterpart, prints a notice and exits 0 — the first committed
report becomes the baseline the next run gates against.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def load_baseline(path):
    """A brand-new bench has no committed baseline yet; that is a notice,
    not a failure — the first committed report becomes the baseline."""
    try:
        return load(path)
    except FileNotFoundError:
        print(f"{path}: no committed baseline yet, gate skipped")
        sys.exit(0)


def entries(doc, list_name="results"):
    return doc[list_name] if list_name in doc else [doc]


def pick_entry(doc, selects, path, list_name="results"):
    if list_name not in doc:
        return doc  # a flat summary *is* the entry; selectors address lists
    matches = [
        entry
        for entry in entries(doc, list_name)
        if all(str(entry.get(key)) == value for key, value in selects)
    ]
    if len(matches) != 1:
        raise SystemExit(
            f"{path}: selector {selects!r} matched {len(matches)} of "
            f"{len(entries(doc, list_name))} results (need exactly 1)"
        )
    return matches[0]


def parse_kv(raw, parser, flag):
    key, _, value = raw.partition("=")
    if not value:
        parser.error(f"{flag} needs KEY=VALUE, got {raw!r}")
    return (key, value)


def gate_pair(label, baseline, measured, metric, tolerance, lower_better=False):
    # Percent delta vs baseline, so the CI summary reads as a perf report
    # and not just a pass/fail verdict (negative = below baseline).
    delta = (measured - baseline) / baseline if baseline else float("inf")
    if lower_better:
        ceiling = baseline * (1.0 + tolerance)
        ok = measured <= ceiling
        print(
            f"{label}{metric}: baseline {baseline:.1f}, measured {measured:.1f} "
            f"({delta:+.1%}), ceiling {ceiling:.1f} (tolerance {tolerance:.0%}) -> "
            f"{'ok' if ok else 'REGRESSION'}"
        )
        return ok
    floor = baseline * (1.0 - tolerance)
    verdict = "ok" if measured >= floor else "REGRESSION"
    print(
        f"{label}{metric}: baseline {baseline:.1f}, measured {measured:.1f} "
        f"({delta:+.1%}), floor {floor:.1f} (tolerance {tolerance:.0%}) -> {verdict}"
    )
    return measured >= floor


def run_matrix(args, keys):
    base_doc, meas_doc = load_baseline(args.baseline), load(args.measured)
    base_cores, meas_cores = base_doc.get("cores"), meas_doc.get("cores")
    if None not in (base_cores, meas_cores) and int(base_cores) != int(meas_cores):
        # The matrix's row set is host-gated (threaded rows only exist on
        # multi-core hosts) and its speeds are a property of the measuring
        # hardware, so a report from a host with a different core count is
        # incomparable. The first report from the new hardware becomes the
        # baseline the next same-cores run gates against.
        print(
            f"cores={meas_cores} vs baseline cores={base_cores}: matrix gate "
            f"skipped (this report baselines the new core count)"
        )
        return True
    index = {
        tuple(str(entry.get(k)) for k in keys): entry
        for entry in entries(base_doc, args.list)
    }
    gated, ok = 0, True
    for entry in entries(meas_doc, args.list):
        ident = tuple(str(entry.get(k)) for k in keys)
        base = index.get(ident)
        if base is None:
            print(f"{'/'.join(ident)}: no baseline counterpart, skipped")
            continue
        gated += 1
        label = f"[{'/'.join(ident)}] "
        ok &= gate_pair(
            label, float(base[args.metric]), float(entry[args.metric]),
            args.metric, args.tolerance, args.lower_better,
        )
    if gated == 0:
        # The baseline predates this bench's rows (new matrix axis, new
        # labels): nothing to regress against, so pass with a notice.
        print(
            f"--matrix {','.join(keys)}: no measured entry has a baseline "
            f"counterpart yet, gate skipped"
        )
    return ok


def run_exceeds(args, parser):
    doc = load(args.baseline)  # single-file mode: the first positional
    if args.measured is not None:
        parser.error("--exceeds reads one file; drop the second positional")
    cores = doc.get("cores")
    if cores is not None and int(cores) < args.min_cores:
        print(
            f"cores={cores} < {args.min_cores}: ordering check skipped "
            f"(parallel rows cannot overtake sequential ones without cores)"
        )
        return True
    selects = [parse_kv(raw, parser, "--select") for raw in args.select]
    fast = pick_entry(
        doc, selects + [parse_kv(args.exceeds, parser, "--exceeds")],
        args.baseline, args.list,
    )
    slow = pick_entry(
        doc, selects + [parse_kv(args.over, parser, "--over")],
        args.baseline, args.list,
    )
    fast_v, slow_v = float(fast[args.metric]), float(slow[args.metric])
    verdict = "ok" if fast_v > slow_v else "INVERSION LOST"
    print(
        f"{args.metric}: {args.exceeds} {fast_v:.1f} vs {args.over} {slow_v:.1f} "
        f"-> {verdict}"
    )
    return fast_v > slow_v


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline")
    parser.add_argument("measured", nargs="?")
    parser.add_argument("--metric", required=True)
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="pick the results[] entry with this field (repeatable)",
    )
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument(
        "--matrix",
        metavar="KEY,KEY",
        help="gate every measured entry against the baseline entry matching "
        "on these comma-separated keys",
    )
    parser.add_argument(
        "--exceeds",
        metavar="KEY=VALUE",
        help="ordering gate: this entry's metric must strictly exceed --over's",
    )
    parser.add_argument("--over", metavar="KEY=VALUE")
    parser.add_argument(
        "--list",
        default="results",
        metavar="NAME",
        help="read this top-level list instead of results (e.g. checkpoint)",
    )
    parser.add_argument(
        "--lower-better",
        action="store_true",
        help="regression direction for latency/size metrics: fail when "
        "measured exceeds baseline * (1 + tolerance)",
    )
    parser.add_argument(
        "--min-cores",
        type=int,
        default=2,
        help="skip the --exceeds check when the report's cores field is lower",
    )
    args = parser.parse_args()

    if (args.exceeds is None) != (args.over is None):
        parser.error("--exceeds and --over go together")

    if args.exceeds is not None:
        ok = run_exceeds(args, parser)
    elif args.matrix is not None:
        if args.measured is None:
            parser.error("--matrix needs BASELINE and MEASURED")
        ok = run_matrix(args, [k for k in args.matrix.split(",") if k])
    else:
        if args.measured is None:
            parser.error("regression gate needs BASELINE and MEASURED")
        selects = [parse_kv(raw, parser, "--select") for raw in args.select]
        baseline = float(
            pick_entry(
                load_baseline(args.baseline), selects, args.baseline, args.list
            )[args.metric]
        )
        measured = float(
            pick_entry(load(args.measured), selects, args.measured, args.list)[
                args.metric
            ]
        )
        ok = gate_pair(
            "", baseline, measured, args.metric, args.tolerance, args.lower_better
        )

    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
