"""The project layer of reprolint v2: whole-tree context for cross-file passes.

The per-file rules (RL0xx) see one :class:`~repro.analysis.rules.base.ModuleContext`
at a time and cannot observe the bugs that live *between* files: a
blocking disk write buried two calls below an ``async def``, or a
metric renamed in code while ``docs/OBSERVABILITY.md`` still catalogues
the old name.  This module builds the shared substrate those passes
need:

* :class:`FileIndex` -- the per-file facts a project pass consumes
  (function definitions with their call sites and blocking-primitive
  call sites, metric-name string literals, import aliases), extracted
  in a single AST walk per file.
* :class:`ProjectContext` -- the union of every indexed file plus
  lazily-read project documents (``docs/OBSERVABILITY.md`` and friends)
  and on-demand module parsing for passes that need a real AST of one
  specific file (the op-dispatch contract check).

Project rules subclass :class:`~repro.analysis.rules.base.ProjectRule`
and receive one :class:`ProjectContext` per run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.module import ModuleContext, dotted_name

__all__ = [
    "BLOCKING_CALLS",
    "BLOCKING_METHOD_TAILS",
    "CallSite",
    "FileIndex",
    "FunctionInfo",
    "MetricSite",
    "ProjectContext",
    "extract_file_index",
    "find_project_root",
]

#: dotted call names that block the calling thread (and therefore the
#: event loop, when reached from a coroutine).  Values are the phrasing
#: used in findings.
BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "time.sleep() stalls the thread",
    "open": "open() performs synchronous file I/O",
    "os.replace": "os.replace() performs synchronous file I/O",
    "os.rename": "os.rename() performs synchronous file I/O",
    "os.unlink": "os.unlink() performs synchronous file I/O",
    "os.remove": "os.remove() performs synchronous file I/O",
    "os.fsync": "os.fsync() blocks on the disk",
    "os.makedirs": "os.makedirs() performs synchronous file I/O",
    "shutil.copy": "shutil.copy() performs synchronous file I/O",
    "shutil.copyfile": "shutil.copyfile() performs synchronous file I/O",
    "shutil.move": "shutil.move() performs synchronous file I/O",
    "shutil.rmtree": "shutil.rmtree() performs synchronous file I/O",
    "subprocess.run": "subprocess.run() blocks until the child exits",
    "subprocess.call": "subprocess.call() blocks until the child exits",
    "subprocess.check_call": "subprocess.check_call() blocks until the child exits",
    "subprocess.check_output": "subprocess.check_output() blocks until the child exits",
    "subprocess.Popen": "subprocess.Popen() performs blocking process setup",
    "socket.create_connection": "socket.create_connection() blocks on the network",
}

#: attribute-call tails that block regardless of the receiver expression
#: (``pathlib.Path`` I/O and raw socket calls)
BLOCKING_METHOD_TAILS: dict[str, str] = {
    "read_text": ".read_text() performs synchronous file I/O",
    "write_text": ".write_text() performs synchronous file I/O",
    "read_bytes": ".read_bytes() performs synchronous file I/O",
    "write_bytes": ".write_bytes() performs synchronous file I/O",
}

#: metrics-registry method tails whose first positional string argument
#: is a metric name (see repro/obs/metrics.py)
_METRIC_METHODS = frozenset(
    {"inc", "observe", "set_gauge", "timer", "counter", "gauge", "histogram"}
)

#: receivers whose ``.inc``/``.observe`` calls are NOT metric sites
#: (the instrument objects themselves, counters on dataclasses, ...)
_METRIC_RECEIVER_HINTS = ("reg", "registry", "metrics")


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    name: str  #: dotted name as written (``self.snapshot_now``)
    line: int
    col: int
    note: str = ""  #: for blocking sites: why the call blocks


@dataclass(frozen=True)
class FunctionInfo:
    """One function definition and the call-graph facts of its body."""

    qualname: str  #: dotted within the module (``ScheduleServer.start``)
    line: int
    col: int
    is_async: bool
    calls: tuple[CallSite, ...]  #: every call site in the immediate body
    blocking: tuple[CallSite, ...]  #: the subset that hits a blocking primitive

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", maxsplit=1)[-1]


@dataclass(frozen=True)
class MetricSite:
    """One metric-name string literal passed to the metrics registry.

    ``pattern`` is the literal name, with ``*`` standing in for any
    interpolated f-string fragment (``serve.op.{op}`` -> ``serve.op.*``).
    """

    pattern: str
    line: int
    col: int


@dataclass(frozen=True)
class FileIndex:
    """Everything the project passes need to know about one file."""

    posix_path: str  #: project-relative POSIX path used for matching
    display_path: str  #: path as reported in findings
    functions: tuple[FunctionInfo, ...]
    metric_sites: tuple[MetricSite, ...]
    #: ``from M import N [as A]`` aliases: local name -> "module:name"
    imports: tuple[tuple[str, str], ...] = ()


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
def _blocking_note(name: str) -> str | None:
    note = BLOCKING_CALLS.get(name)
    if note is not None:
        return note
    tail = name.rsplit(".", maxsplit=1)[-1]
    if "." in name and tail in BLOCKING_METHOD_TAILS:
        return BLOCKING_METHOD_TAILS[tail]
    return None


def _metric_patterns(node: ast.expr) -> list[str]:
    """Metric-name patterns of a registry call's first argument.

    Usually a single pattern; conditional expressions like
    ``"a.updated" if replaced else "a.registered"`` contribute both
    branches.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("*")
        pattern = "".join(parts)
        return [pattern] if pattern.strip("*") else []
    if isinstance(node, ast.IfExp):
        return _metric_patterns(node.body) + _metric_patterns(node.orelse)
    return []


def _is_metric_call(name: str) -> bool:
    """``reg.inc`` / ``registry.observe`` / ``self._metrics.timer`` ..."""
    head, _, tail = name.rpartition(".")
    if tail not in _METRIC_METHODS or not head:
        return False
    receiver = head.rsplit(".", maxsplit=1)[-1].lstrip("_")
    return any(hint in receiver for hint in _METRIC_RECEIVER_HINTS)


class _Extractor(ast.NodeVisitor):
    """One walk collecting function facts and metric sites."""

    def __init__(self) -> None:
        self.functions: list[FunctionInfo] = []
        self.metric_sites: list[MetricSite] = []
        self.imports: list[tuple[str, str]] = []
        self._stack: list[str] = []  # enclosing class/function names

    # -- imports --------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    self.imports.append(
                        (alias.asname or alias.name, f"{node.module}:{alias.name}")
                    )
        self.generic_visit(node)

    # -- function bodies ------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qualname = ".".join([*self._stack, node.name])
        calls: list[CallSite] = []
        blocking: list[CallSite] = []
        # walk the immediate body only: nested defs index separately and
        # become call-graph nodes of their own
        nested: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

        def scan(n: ast.AST) -> None:
            for child in ast.iter_child_nodes(n):
                if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                    nested.append(child)
                    continue
                if isinstance(child, ast.Call):
                    name = dotted_name(child.func)
                    if name:
                        site = CallSite(name=name, line=child.lineno, col=child.col_offset)
                        calls.append(site)
                        note = _blocking_note(name)
                        if note is not None:
                            blocking.append(
                                CallSite(
                                    name=name,
                                    line=child.lineno,
                                    col=child.col_offset,
                                    note=note,
                                )
                            )
                        self._record_metric(child, name)
                scan(child)

        scan(node)
        self.functions.append(
            FunctionInfo(
                qualname=qualname,
                line=node.lineno,
                col=node.col_offset,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                calls=tuple(calls),
                blocking=tuple(blocking),
            )
        )
        self._stack.append(node.name)
        for inner in nested:
            self._visit_function(inner)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- module-level calls (metric sites outside functions) ------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name:
            self._record_metric(node, name)
        self.generic_visit(node)

    def _record_metric(self, node: ast.Call, name: str) -> None:
        if not _is_metric_call(name) or not node.args:
            return
        for pattern in _metric_patterns(node.args[0]):
            self.metric_sites.append(
                MetricSite(pattern=pattern, line=node.lineno, col=node.col_offset)
            )


def extract_file_index(module: ModuleContext, posix_path: str | None = None) -> FileIndex:
    """Run the extraction walk over one parsed module."""
    extractor = _Extractor()
    extractor.visit(module.tree)
    return FileIndex(
        posix_path=posix_path if posix_path is not None else module.posix_path,
        display_path=module.path,
        functions=tuple(extractor.functions),
        metric_sites=tuple(extractor.metric_sites),
        imports=tuple(extractor.imports),
    )


# ----------------------------------------------------------------------
# project context
# ----------------------------------------------------------------------
def find_project_root(paths: list[Path]) -> Path | None:
    """The nearest ancestor of the first linted path holding a
    ``pyproject.toml`` (the same walk :func:`~repro.analysis.config.load_config`
    performs)."""
    for raw in paths:
        base = raw.resolve()
        if base.is_file():
            base = base.parent
        for directory in (base, *base.parents):
            if (directory / "pyproject.toml").is_file():
                return directory
        break
    return None


@dataclass
class ProjectContext:
    """The whole-tree view handed to every :class:`ProjectRule`.

    ``indexes`` maps project-relative POSIX paths to :class:`FileIndex`
    for every Python file in scope: the linted set, plus (when a project
    root was found) the rest of the ``src/`` tree, so contract passes
    see the full code surface even when only a subdirectory is linted.
    """

    root: Path | None
    indexes: dict[str, FileIndex] = field(default_factory=dict)
    _docs: dict[str, tuple[str, ...] | None] = field(default_factory=dict, repr=False)

    # -- code lookups ---------------------------------------------------
    def files_under(self, fragment: str) -> list[FileIndex]:
        """Indexed files whose path contains ``fragment`` as a segment."""
        return [
            index
            for posix, index in sorted(self.indexes.items())
            if fragment in posix.split("/")
        ]

    def find_file(self, suffix: str) -> FileIndex | None:
        """The unique indexed file whose path ends with ``suffix``."""
        matches = [
            index for posix, index in self.indexes.items() if posix.endswith(suffix)
        ]
        if len(matches) == 1:
            return matches[0]
        return None

    def function_table(self) -> dict[str, dict[str, list[FunctionInfo]]]:
        """Per-file lookup: posix path -> {bare or qual name -> defs}."""
        table: dict[str, dict[str, list[FunctionInfo]]] = {}
        for posix, index in self.indexes.items():
            per_file: dict[str, list[FunctionInfo]] = {}
            for info in index.functions:
                per_file.setdefault(info.name, []).append(info)
                if info.qualname != info.name:
                    per_file.setdefault(info.qualname, []).append(info)
            table[posix] = per_file
        return table

    def module_for(self, module_dotted: str) -> str | None:
        """Resolve a dotted module name to an indexed posix path."""
        rel = module_dotted.replace(".", "/")
        for candidate in (f"{rel}.py", f"{rel}/__init__.py"):
            for posix in self.indexes:
                if posix.endswith(candidate):
                    return posix
        return None

    # -- docs and on-demand parsing -------------------------------------
    def doc_lines(self, rel_path: str) -> tuple[str, ...] | None:
        """Lines of a project document (``docs/OBSERVABILITY.md``), or
        ``None`` when the project has no root or no such file."""
        if rel_path not in self._docs:
            lines: tuple[str, ...] | None = None
            if self.root is not None:
                target = self.root / rel_path
                if target.is_file():
                    lines = tuple(
                        target.read_text(encoding="utf-8").splitlines()
                    )
            self._docs[rel_path] = lines
        return self._docs[rel_path]

    def doc_path(self, rel_path: str) -> str:
        """Display path for findings on a project document."""
        if self.root is None:
            return rel_path
        target = self.root / rel_path
        try:
            return target.relative_to(Path.cwd()).as_posix()
        except ValueError:
            return str(target)

    def parse_module(self, index: FileIndex) -> ModuleContext | None:
        """Parse one indexed file on demand (for passes that need the
        real AST rather than the :class:`FileIndex` facts)."""
        path = Path(index.display_path)
        if not path.is_absolute() and not path.exists() and self.root is not None:
            path = self.root / index.posix_path
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError):
            return None
        return ModuleContext(
            path=index.display_path,
            posix_path=index.posix_path,
            tree=tree,
            source_lines=tuple(source.splitlines()),
        )
