"""The reprolint engine: walk files, run passes, filter, report.

Pipeline per run:

1. collect ``*.py`` files under the given paths (skipping caches),
2. parse each once into a :class:`~repro.analysis.registry.ModuleInfo`,
3. run every registered pass over every module,
4. drop findings covered by the built-in path allowlist (places whose
   *job* is the flagged construct, e.g. ``sim/rand.py`` owns the RNG),
5. drop findings suppressed inline with ``# reprolint: disable=RULE``,
6. split what remains into new vs baselined,
7. render text or JSON; callers gate on ``report.new_findings``.

Inline suppressions are per-line and per-rule::

    frozen = time.time()  # reprolint: disable=DET002 -- host wall time
                          #   is part of the *report*, not the model

``disable=all`` silences every rule on that line.  Anything after the
rule list is free-form justification (encouraged; reviewers read it).
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.analysis.callgraph import CallGraph, ProjectInfo
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    DEEP_PASS_REGISTRY,
    PASS_REGISTRY,
    LintPass,
    ModuleInfo,
    ProjectPass,
    rule_table,
)

# Importing the package registers the built-in passes.
import repro.analysis.passes  # noqa: F401  (import for side effect)

#: ``# reprolint: disable=DET001,SIM002`` or ``disable=all``.
_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_*,\s]+?)(?:\s+--.*)?$")

#: Paths whose findings for a given rule are by-design, not bugs.  The
#: patterns match the end of a posix path.  Keep this list short and
#: justified: anything else goes through inline suppressions so the
#: reasoning sits next to the code.
DEFAULT_ALLOWLIST: Dict[str, Sequence[str]] = {
    # sim/rand.py *is* the sanctioned wrapper around `random`.
    "DET001": ("*/repro/sim/rand.py",),
    # The harness runs outside the simulated universe: it forks worker
    # processes, writes BENCH_*.json, and reads wall clocks for the
    # diagnostic `runtime` block the results schema excludes from
    # reproducibility comparisons.
    "SIM001": ("*/repro/harness/*", "*/repro/analysis/*",
               "*/repro/__main__.py"),
    # Same boundary for the flow-sensitive variant: wall-clock values
    # stored by the harness/runner are diagnostic metadata by design.
    # The model checker's explorer sits on the same side of that
    # boundary: it reads the host clock only for its own wall budget
    # and throughput report, never for anything a world fingerprints.
    "DETFLOW001": ("*/repro/harness/*", "*/repro/analysis/*",
                   "*/repro/__main__.py", "*/repro/sim/rand.py",
                   "*/repro/sim/sanitizer.py",
                   "*/repro/check/explorer.py"),
    # CLI front doors and operator tools print to a terminal on
    # purpose; everything simulated must speak through the tracer.
    "OBS001": ("*/repro/__main__.py", "*/repro/analysis/*",
               "*/repro/tools/*", "*/repro/harness/*"),
    # Snapshot safety binds only what the model checker snapshots:
    # simulated objects.  Harness workers, analysis tooling, and CLI
    # front doors are never captured, so their lambdas are harmless.
    "SNAP001": ("*/repro/harness/*", "*/repro/analysis/*",
                "*/repro/__main__.py", "*/repro/tools/*"),
    # The lint registries are decorator-populated module lists by
    # design, and the harness/tools run outside the simulated universe
    # (process-global caches there never reach a shard's wire bytes).
    "SHARD001": ("*/repro/analysis/*", "*/repro/tools/*"),
}


@dataclass
class LintReport:
    """Everything one engine run learned."""

    new_findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    allowlisted: int = 0
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: deep-pass name -> wall seconds (populated only under ``deep``).
    deep_timings: Dict[str, float] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        """0 when clean; 1 when new findings (or unparseable files)."""
        return 1 if (self.new_findings or self.parse_errors) else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "summary": {
                "files_scanned": self.files_scanned,
                "new": len(self.new_findings),
                "baselined": len(self.baselined),
                "suppressed": self.suppressed,
                "allowlisted": self.allowlisted,
                "parse_errors": len(self.parse_errors),
            },
            "deep_timings": {name: round(seconds, 4) for name, seconds
                             in sorted(self.deep_timings.items())},
            "findings": [f.to_dict() for f in self.new_findings],
            "baselined": [f.to_dict() for f in self.baselined],
            "parse_errors": list(self.parse_errors),
        }

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.new_findings]
        lines.extend(f"{path}: PARSE [error] {message}"
                     for path, message in
                     (entry.split(": ", 1) for entry in self.parse_errors))
        summary = (f"{self.files_scanned} files scanned: "
                   f"{len(self.new_findings)} new finding(s), "
                   f"{len(self.baselined)} baselined, "
                   f"{self.suppressed} suppressed, "
                   f"{self.allowlisted} allowlisted")
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def parse_suppressions(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """1-based line number -> set of rule ids disabled on that line."""
    table: Dict[int, Set[str]] = {}
    for index, line in enumerate(source_lines, start=1):
        match = _SUPPRESSION_RE.search(line)
        if not match:
            continue
        rules = {token.strip().upper() for token in
                 match.group(1).split(",") if token.strip()}
        if rules:
            table[index] = rules
    return table


def _is_suppressed(finding: Finding,
                   suppressions: Dict[int, Set[str]]) -> bool:
    rules = suppressions.get(finding.line)
    if rules is None:
        return False
    return finding.rule.upper() in rules or "ALL" in rules or "*" in rules


def _is_allowlisted(finding: Finding, path: Path,
                    allowlist: Dict[str, Sequence[str]]) -> bool:
    patterns = allowlist.get(finding.rule, ())
    posix = path.as_posix()
    return any(fnmatch.fnmatch(posix, pattern) for pattern in patterns)


def collect_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Python files under ``paths`` (files pass through), sorted."""
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(p for p in path.rglob("*.py")
                         if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            files.append(path)
    return sorted(set(files))


class LintEngine:
    """Runs registered passes over a file set and filters the output."""

    def __init__(self,
                 passes: Optional[Sequence[LintPass]] = None,
                 allowlist: Optional[Dict[str, Sequence[str]]] = None,
                 baseline: Optional[Set[str]] = None,
                 deep: bool = False,
                 deep_passes: Optional[Sequence[ProjectPass]] = None) -> None:
        self.passes: List[LintPass] = (list(passes) if passes is not None
                                       else [cls() for cls in PASS_REGISTRY])
        self.allowlist = (allowlist if allowlist is not None
                          else DEFAULT_ALLOWLIST)
        self.baseline = baseline or set()
        self.deep = deep
        self.deep_passes: List[ProjectPass] = (
            list(deep_passes) if deep_passes is not None
            else [cls() for cls in DEEP_PASS_REGISTRY])

    def lint_paths(self, paths: Iterable[Union[str, Path]],
                   display_root: Optional[Path] = None) -> LintReport:
        """Lint every python file under ``paths``."""
        report = LintReport()
        modules: List[ModuleInfo] = []
        for path in collect_files(paths):
            module = self._lint_file(path, report, display_root)
            if module is not None:
                modules.append(module)
        if self.deep:
            self._run_deep_passes(modules, report)
        report.new_findings.sort(key=Finding.sort_key)
        report.baselined.sort(key=Finding.sort_key)
        return report

    def lint_source(self, source: str, display: str = "<string>") -> LintReport:
        """Lint an in-memory snippet (the unit-test entry point)."""
        report = LintReport()
        module = ModuleInfo(path=Path(display), display=display,
                            source=source, tree=ast.parse(source),
                            lines=source.splitlines())
        self._run_passes(module, report)
        report.files_scanned = 1
        report.new_findings.sort(key=Finding.sort_key)
        return report

    # ------------------------------------------------------------------

    def _lint_file(self, path: Path, report: LintReport,
                   display_root: Optional[Path]) -> Optional[ModuleInfo]:
        display = path.as_posix()
        if display_root is not None:
            try:
                display = path.resolve().relative_to(
                    display_root.resolve()).as_posix()
            except ValueError:
                pass
        try:
            module = ModuleInfo.parse(path, display)
        except SyntaxError as exc:
            report.parse_errors.append(f"{display}: {exc.msg} "
                                       f"(line {exc.lineno})")
            return None
        report.files_scanned += 1
        self._run_passes(module, report)
        return module

    def _run_deep_passes(self, modules: List[ModuleInfo],
                         report: LintReport) -> None:
        """Build the project index once, then run every deep pass.

        Deep findings go through the same allowlist / suppression /
        baseline pipeline as per-file findings; the module a finding
        lands in is looked up by its display path so inline
        ``# reprolint: disable=...`` comments keep working.
        """
        import time as _time  # perf_counter only: diagnostic timings

        build_start = _time.perf_counter()
        project = ProjectInfo.build(modules)
        graph = CallGraph(project)
        report.deep_timings["project-index"] = (_time.perf_counter()
                                                - build_start)
        by_display = {module.display: module for module in modules}
        suppression_cache: Dict[str, Dict[int, Set[str]]] = {}
        for deep_pass in self.deep_passes:
            pass_start = _time.perf_counter()
            for finding in deep_pass.check_project(project, graph):
                module = by_display.get(finding.file)
                if module is None:
                    report.new_findings.append(finding)
                    continue
                if finding.file not in suppression_cache:
                    suppression_cache[finding.file] = parse_suppressions(
                        module.lines)
                if _is_allowlisted(finding, module.path, self.allowlist):
                    report.allowlisted += 1
                elif _is_suppressed(finding, suppression_cache[finding.file]):
                    report.suppressed += 1
                elif finding.fingerprint() in self.baseline:
                    report.baselined.append(finding)
                else:
                    report.new_findings.append(finding)
            report.deep_timings[deep_pass.name] = (_time.perf_counter()
                                                   - pass_start)

    def _run_passes(self, module: ModuleInfo, report: LintReport) -> None:
        suppressions = parse_suppressions(module.lines)
        for lint_pass in self.passes:
            for finding in lint_pass.check(module):
                if _is_allowlisted(finding, module.path, self.allowlist):
                    report.allowlisted += 1
                elif _is_suppressed(finding, suppressions):
                    report.suppressed += 1
                elif finding.fingerprint() in self.baseline:
                    report.baselined.append(finding)
                else:
                    report.new_findings.append(finding)


def list_rules() -> str:
    """Human-readable table of every registered rule."""
    lines = []
    for rule_id, rule in sorted(rule_table().items()):
        lines.append(f"{rule_id}  {rule.name:<32} [{rule.severity:>7}]  "
                     f"{rule.summary}")
    return "\n".join(lines)
