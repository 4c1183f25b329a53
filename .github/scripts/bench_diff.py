"""Fail when a gate's fresh BENCH file differs from the committed one.

    python .github/scripts/bench_diff.py FILE [SECTION ...]
        [--skip-preset-key KEY ...]

compares FILE in the working tree with ``git show HEAD:FILE`` on the
named top-level sections (the whole document if none is named), after
deleting each ``--skip-preset-key`` from every entry of ``presets``
(the mc gate's per-preset timings).  A difference is printed as a
unified diff and exits 1.
"""

import argparse
import difflib
import json
import subprocess
import sys


def lines(doc, sections, skip):
    for preset in doc["presets"] if skip else ():
        for key in skip:
            del preset[key]
    kept = {key: doc[key] for key in sections} if sections else doc
    return json.dumps(kept, indent=1, sort_keys=True).splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file")
    parser.add_argument("sections", nargs="*")
    parser.add_argument("--skip-preset-key", action="append", default=[],
                        metavar="KEY")
    args = parser.parse_args()
    committed = subprocess.run(["git", "show", f"HEAD:{args.file}"],
                               check=True, capture_output=True,
                               text=True).stdout
    with open(args.file) as fresh:
        diff = difflib.unified_diff(
            lines(json.loads(committed), args.sections, args.skip_preset_key),
            lines(json.load(fresh), args.sections, args.skip_preset_key),
            f"HEAD:{args.file}", args.file, lineterm="")
        sys.exit("\n".join(diff) or None)


if __name__ == "__main__":
    main()
