"""R008, R015, R016 — primitives confined to the one package that owns them.

Each of these rules says "primitive P may be used only inside package Q",
because Q wraps P in a contract the rest of the tree relies on:

* **R008** — ``signal.alarm``/``setitimer``, ``os.fork``/``forkpty``,
  ``multiprocessing.Process`` and ``multiprocessing.shared_memory`` belong
  to :mod:`repro.resilience`, whose deadlines, worker pool and
  content-addressed segments classify crashes and clean up after them;
* **R015** — memory-mapped shard reads (``numpy.load`` with ``mmap_mode``,
  ``numpy.lib.format.open_memmap``, ``numpy.memmap``) and hand-built
  ``"manifest.json"`` paths belong to :mod:`repro.data.store`, which
  refuses pickles, hashes every file into the manifest and validates it on
  read;
* **R016** — ``socket``, ``http.client``, ``http.server`` and
  ``urllib.request`` belong to :mod:`repro.serve`, whose transport raises
  typed errors, retries deterministically and verifies what it fetches.

One :class:`ConfinementRule` implements all three; each row is a subclass
holding data only.  Names resolve through the file's import bindings
(:meth:`~repro.analysis.engine.FileContext.resolve`), so every alias
spelling is caught and import order does not matter.  Outside the row's
package a finding is raised for

* an import that names a reserved module or member (one per name);
* a Name or Attribute chain that resolves to a reserved name (one per
  chain, at the shortest part of the chain that reaches it);
* a call of a keyword-reserved name that passes that keyword;
* an exact reserved string literal.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping

from repro.analysis.engine import FileContext, Finding, Rule, SEVERITY_ERROR


class ConfinementRule(Rule):
    """Flag reserved names outside the one package allowed to use them."""

    severity = SEVERITY_ERROR
    interests = (
        ast.Import, ast.ImportFrom, ast.Name, ast.Attribute, ast.Call, ast.Constant,
    )
    #: Consecutive path components of the package the names are confined to.
    package: tuple[str, ...] = ()
    #: Reserved module or member (and everything under it) -> replacement.
    reserved: Mapping[str, str] = {}
    #: Name reserved only when called with a keyword -> (keyword, replacement).
    reserved_calls: Mapping[str, tuple[str, str]] = {}
    #: Exact string literal -> replacement.
    reserved_literals: Mapping[str, str] = {}

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        for verb, what, replacement in self._matches(node, ctx):
            if replacement is not None and not ctx.in_package(*self.package):
                home = ".".join(("repro",) + self.package)
                message = f"{verb} {what} outside {home}; use {replacement} instead"
                yield self.finding(ctx, node, message)

    def _matches(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[tuple[str, str | None, str | None]]:
        """``(verb, what, replacement or None)`` for each candidate at ``node``."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield "import of", alias.name, self._replacement(alias.name)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                yield "import of", name, self._replacement(name)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            # Report each chain once: where it first reaches a reserved name.
            inner = node.value if isinstance(node, ast.Attribute) else None
            if inner is None or self._replacement(ctx.resolve(inner)) is None:
                dotted = ctx.resolve(node)
                yield "use of", dotted, self._replacement(dotted)
        elif isinstance(node, ast.Call):
            called = ctx.resolve(node.func)
            keyword, replacement = self.reserved_calls.get(called, ("", None))
            if any(kw.arg == keyword for kw in node.keywords):
                yield "use of", f"{called} with {keyword}", replacement
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield "use of", repr(node.value), self.reserved_literals.get(node.value)

    def _replacement(self, dotted: str | None) -> str | None:
        """The replacement for the longest reserved prefix of ``dotted``."""
        parts = dotted.split(".") if dotted else []
        for end in range(len(parts), 0, -1):
            replacement = self.reserved.get(".".join(parts[:end]))
            if replacement is not None:
                return replacement
        return None


class ProcessPrimitiveRule(ConfinementRule):
    """Flag raw SIGALRM / fork / Process usage outside ``repro.resilience``."""

    rule_id = "R008"
    description = (
        "process, signal, and shared-memory primitives (signal.alarm, "
        "os.fork, multiprocessing.Process, multiprocessing.shared_memory) "
        "are reserved for repro.resilience"
    )
    package = ("resilience",)
    reserved = {
        "signal.alarm": "repro.resilience.call_with_deadline",
        "signal.setitimer": "repro.resilience.call_with_deadline",
        "os.fork": "repro.resilience.WorkerPool",
        "os.forkpty": "repro.resilience.WorkerPool",
        "multiprocessing.Process": "repro.resilience.WorkerPool",
        "multiprocessing.shared_memory": "repro.resilience.shm",
        "multiprocessing.shared_memory.SharedMemory":
            "repro.resilience.shm.publish_dataset",
        "multiprocessing.shared_memory.ShareableList":
            "repro.resilience.shm.publish_dataset",
    }


class StoreIoRule(ConfinementRule):
    """Flag raw mmap loads and hand-rolled manifests outside the store."""

    rule_id = "R015"
    description = (
        "raw shard/manifest I/O (np.load with mmap_mode, open_memmap, "
        "np.memmap, hand-built manifest.json paths) is reserved for "
        "repro.data.store"
    )
    package = ("data", "store")
    reserved = {
        "numpy.lib.format.open_memmap": "repro.data.store.format.load_array",
        "numpy.memmap": "repro.data.store.format.load_array",
    }
    reserved_calls = {
        "numpy.load": ("mmap_mode", "repro.data.store.format.load_array"),
    }
    reserved_literals = {
        "manifest.json":  # repro: ignore[R015] — the detector's own needle
            "repro.data.store.read_manifest or write_store",
    }


class NetIoRule(ConfinementRule):
    """Flag raw socket/HTTP usage outside ``repro.serve``."""

    rule_id = "R016"
    description = (
        "network primitives (socket, http.client, http.server, "
        "urllib.request) are reserved for repro.serve — use GatewayClient "
        "and AuditGateway"
    )
    package = ("serve",)
    reserved = {
        "socket": "repro.serve.GatewayClient / AuditGateway",
        "http.client": "repro.serve.GatewayClient",
        "http.server": "repro.serve.AuditGateway",
        "urllib.request": "repro.serve.GatewayClient",
    }
