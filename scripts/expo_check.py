#!/usr/bin/env python3
"""Check Prometheus text exposition scraped from ``cdba`` processes.

Two modes:

Validate — parse a scrape (file path or ``http://`` URL) against the
text-format 0.0.4 rules the registry renders under, and optionally
require specific series to be present::

    expo_check.py validate http://127.0.0.1:7421/metrics \\
        --require cdba_ctrl_ticks_total --require cdba_gateway_frames_total

  Checks: every comment line is ``# HELP`` or ``# TYPE`` with a legal
  metric name; every sample has a parseable value; label names are
  legal and label values use only ``\\\\``, ``\\"``, ``\\n`` escapes;
  every sample is preceded by a ``# TYPE`` for its family (histogram
  ``_bucket``/``_sum``/``_count`` children included); no two samples
  share a series key. Exits 1 on any violation or missing series.

Diff — assert that two scrapes agree on every series under a prefix::

    expo_check.py diff clean.prom faulted.prom --prefix cdba_ctrl_ \\
        --ignore cdba_ctrl_shard_restarts_total \\
        --ignore cdba_ctrl_shard_deliveries_total \\
        --ignore cdba_ctrl_journal_events_replayed_total \\
        --ignore cdba_ctrl_restore_seconds \\
        --ignore cdba_ctrl_checkpoint

  Used by CI to prove the deterministic control-plane series (ticks,
  admissions, signalling cost, ...) are identical between a clean run
  and a fault-injected one — recovery must be invisible in the
  metrics, exactly as it is in ``invariant_view()``. Series whose name
  starts with any ``--ignore`` prefix (restart/replay/checkpoint
  bookkeeping, which legitimately differs — ``cdba_ctrl_restore_seconds``
  is a histogram of zero restores on one side and one on the other, so
  its count, sum and buckets all move; a batch the replay applied is one
  ``cdba_ctrl_shard_deliveries_total`` never counted; ``cdba_ctrl_checkpoint``
  covers the ``checkpoints``/``checkpoint_bytes``/
  ``checkpoint_encoded_sessions`` counters and the per-shard
  ``checkpoint_retained_bytes`` gauge) are excluded. Exits 1 on any
  value mismatch or series present on only one side.
"""

import argparse
import re
import sys
import urllib.request

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def fetch(source):
    if source.startswith("http://") or source.startswith("https://"):
        with urllib.request.urlopen(source, timeout=10) as resp:
            return resp.read().decode("utf-8")
    with open(source, encoding="utf-8") as f:
        return f.read()


def parse_value(text):
    if text in ("+Inf", "-Inf", "NaN"):
        return text
    return float(text)


def split_labels(line, labels):
    """Parse ``name="value",...`` validating names and escapes."""
    pairs = []
    rest = labels
    while rest:
        eq = rest.find('="')
        if eq < 0:
            raise ValueError(f"malformed label block in {line!r}")
        name = rest[:eq]
        if not LABEL_NAME.match(name) or name.startswith("__"):
            raise ValueError(f"bad label name {name!r} in {line!r}")
        i, chars = eq + 2, []
        while True:
            if i >= len(rest):
                raise ValueError(f"unterminated label value in {line!r}")
            c = rest[i]
            if c == "\\":
                if i + 1 >= len(rest) or rest[i + 1] not in ('\\', '"', "n"):
                    raise ValueError(f"bad escape in {line!r}")
                chars.append(rest[i : i + 2])
                i += 2
            elif c == '"':
                break
            elif c == "\n":
                raise ValueError(f"raw newline inside label value in {line!r}")
            else:
                chars.append(c)
                i += 1
        pairs.append((name, "".join(chars)))
        rest = rest[i + 1 :]
        if rest.startswith(","):
            rest = rest[1:]
    return pairs


def parse(text):
    """Validate ``text`` and return ``{(name, label_text): value}``."""
    samples = {}
    typed = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"unknown comment line {line!r}")
            if not METRIC_NAME.match(parts[2]):
                raise ValueError(f"bad family name in {line!r}")
            if parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in ("counter", "gauge", "histogram"):
                    raise ValueError(f"bad TYPE {kind!r} in {line!r}")
                typed.add(parts[2])
            continue
        series, _, value = line.rpartition(" ")
        if not series:
            raise ValueError(f"sample line {line!r} has no value")
        parse_value(value)  # raises on garbage
        if "{" in series:
            name, rest = series.split("{", 1)
            if not rest.endswith("}"):
                raise ValueError(f"unclosed label block in {line!r}")
            split_labels(line, rest[:-1])
            key = (name, rest[:-1])
        else:
            name, key = series, (series, "")
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad series name {name!r} in {line!r}")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
                break
        if family not in typed:
            raise ValueError(f"sample {name!r} has no preceding # TYPE")
        if key in samples:
            raise ValueError(f"duplicate series {key!r}")
        samples[key] = parse_value(value)
    return samples


def cmd_validate(args):
    samples = parse(fetch(args.source))
    names = {name for name, _ in samples}
    missing = [r for r in args.require if r not in names]
    if missing:
        print(f"FAIL: scrape is missing required series: {', '.join(missing)}")
        return 1
    print(f"OK: {len(samples)} series validate ({len(names)} distinct names)")
    return 0


def cmd_diff(args):
    def select(source):
        return {
            key: value
            for key, value in parse(fetch(source)).items()
            if key[0].startswith(args.prefix)
            and not any(key[0].startswith(ig) for ig in args.ignore)
        }

    a, b = select(args.a), select(args.b)
    failures = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            side = args.b if key not in a else args.a
            failures.append(f"{key} missing from {side}")
        elif a[key] != b[key]:
            failures.append(f"{key}: {a[key]} != {b[key]}")
    if failures:
        print(f"FAIL: {len(failures)} deterministic series diverge:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"OK: {len(a)} '{args.prefix}*' series identical across both scrapes")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    val = sub.add_parser("validate", help="validate one scrape")
    val.add_argument("source", help="file path or http:// URL")
    val.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="series name that must be present (repeatable)",
    )
    diff = sub.add_parser("diff", help="compare series between two scrapes")
    diff.add_argument("a", help="first scrape (file or URL)")
    diff.add_argument("b", help="second scrape (file or URL)")
    diff.add_argument(
        "--prefix",
        default="cdba_ctrl_",
        help="only compare series whose name starts with this",
    )
    diff.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="PREFIX",
        help="exclude series starting with this prefix (repeatable)",
    )
    args = parser.parse_args()
    try:
        return cmd_validate(args) if args.mode == "validate" else cmd_diff(args)
    except (ValueError, OSError) as err:
        print(f"FAIL: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
