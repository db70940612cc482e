"""Template plan cache with version-based invalidation.

The CQMS meta-query workload is highly templated: browsing, recommendation,
and maintenance issue the same Figure 1 statement shapes thousands of times
with different constants.  This module lets :class:`~repro.storage.database.Database`
plan each *template* once:

* **Keying** — an incoming statement is parameterized
  (:func:`~repro.sql.canonicalize.parameterize_statement` swaps every literal
  for a value-carrying :class:`~repro.sql.canonicalize.ParamLiteral` that
  formats as ``'?'``) and then canonicalized; the rendered canonical text is
  the constant-stripped template key.  The key also carries the constants'
  type signature (so type-dependent access-path guards stay valid across
  instances) and the surface template text (case, alias, and FROM order affect
  output columns, so plans are only shared between textually identical
  templates).
* **Re-binding** — the cached plan's operator tree and statement share the
  template's ``ParamLiteral`` nodes, and canonicalization enumerates parameter
  sites in a template-deterministic order, so executing a new instance is one
  positional in-place assignment of the new constants — no re-planning, no
  tree copy.  The engine is single-threaded and plans are never executed
  concurrently, which is what makes the in-place swap safe.
* **Statement cache** — in front of the keying, raw SQL text maps to its
  prepared statement in two steps.  A byte-identical resubmission is a dict
  lookup.  Otherwise the text is tokenized and its *token template* — the
  token stream with each NUMBER/STRING token replaced by its kind (int,
  float, text) — looked up: a hit binds the literal tokens' values into the
  template's parameterized statement, so a fresh constant costs one tokenize
  and no parse.  A miss is parsed from those same tokens, and the parse
  records which token each literal node was made from; that record admits
  the text's token template at once.  A parameter made from a literal token
  takes that token's value; one that no token makes (``TRUE``, a CAST's type
  name) keeps the template's value.  A literal token that makes no
  parameter (``LIMIT 10``) is pinned to its text, so a text writing it
  otherwise is a miss, and its parse admits the template again.
* **Invalidation** — each cached plan snapshots, per touched table, the
  table's identity, ``schema_version``, ``version``, row count, and (when
  available) its statistics.  DDL and index changes require an exact
  ``schema_version`` match; plain DML churn invalidates only when it drifts
  past a configurable budget (relative row-count change, tightened by
  :meth:`~repro.storage.statistics.TableStatistics.drift` when histogram
  snapshots exist on both sides) — the paper's Section 4.4 notion of
  "significant changes in data distribution".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.sql.ast_nodes import (
    DeleteStatement,
    Literal,
    Statement,
    TableRef,
    UpdateStatement,
    walk,
)
from repro.sql.canonicalize import (
    ParamLiteral,
    canonical_statement,
    collect_parameters,
    parameterize_statement,
)
from repro.sql.formatter import format_statement
from repro.sql.parser import number_value
from repro.sql.tokenizer import Token, TokenType, tokenize

#: Default number of cached plans kept by a Database.
DEFAULT_PLAN_CACHE_SIZE = 128

#: How the statement kinds the plan cache takes begin.
_CACHEABLE_STARTS = ("SELECT", "UPDATE", "DELETE")

#: Staleness budget: relative row-count / histogram drift beyond which a
#: cached plan is discarded.  Query maintenance refreshes the runtime
#: statistics of logged queries over a table past the same budget.
DEFAULT_MAX_DRIFT = 0.25


@dataclass
class PlanCacheStats:
    """Counters describing the plan cache's behaviour."""

    hits: int = 0
    misses: int = 0
    invalidated_ddl: int = 0
    invalidated_drift: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0
    #: Statement-cache counters: cacheable raw SQL served without a parse
    #: (hits) versus parsed and prepared (misses).  ``template_hits`` counts
    #: the hits that tokenized the text and bound its constants into a token
    #: template; the rest were byte-identical resubmissions.
    statement_hits: int = 0
    statement_misses: int = 0
    template_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def statement_lookups(self) -> int:
        return self.statement_hits + self.statement_misses

    @property
    def statement_hit_rate(self) -> float:
        """Fraction of cacheable raw-SQL submissions that skipped the parser."""
        return (
            self.statement_hits / self.statement_lookups
            if self.statement_lookups
            else 0.0
        )


@dataclass
class PreparedStatement:
    """A statement readied for cache lookup.

    ``statement`` is the parameterized surface form (execution-equivalent to
    the original: the parameters carry the original constants); ``values``
    are those constants in canonical template order; ``key`` identifies the
    template: canonical constant-stripped text, constant type signature, and
    surface template text.  ``statement`` and ``params`` are shared with every
    other instance of the template and with its cached plan: they hold this
    instance's constants only until the next one is bound.
    """

    statement: Statement
    key: tuple[str, tuple[str, ...], str]
    values: list
    params: list[ParamLiteral]
    table_names: tuple[str, ...]
    #: The text's token template (pinned literal tokens written out) when
    #: the statement cache prepared the text; ``None`` for a bare statement.
    template: tuple | None = None


@dataclass
class _TemplateKey:
    """Memoized canonicalization of one surface template.

    Canonicalizing every incoming statement would cost as much as planning a
    small one, so the cache canonicalizes each *surface template text* once:
    ``canonical`` is its constant-stripped canonical text and ``order`` maps
    canonical parameter positions to surface (parse-order) positions — enough
    to put any later instance's constants into canonical order without
    re-canonicalizing.
    """

    canonical: str
    order: list[int]
    table_names: tuple[str, ...]


@dataclass
class _TokenTemplate:
    """An admitted token template: how a text of this shape binds.

    ``prepared`` is the admitted instance (its statement, parameters, key,
    tables and token template are every instance's).  ``slots`` gives, per
    parameter in canonical order, the index of the literal token whose value
    it takes, or -1 for a constant the template's other tokens fix
    (``TRUE``, a CAST's type name), whose value ``prepared.values`` holds.
    ``pinned`` lists the literal tokens that feed no parameter, ``(index,
    text)``: a text matches only with those tokens written the same.
    ``shape`` is the token template it is filed under.
    """

    shape: tuple
    prepared: PreparedStatement
    slots: tuple[int, ...]
    pinned: tuple[tuple[int, str], ...]


@dataclass
class _TableSnapshot:
    """A touched table's state at plan time."""

    name: str
    table: object
    schema_version: int
    version: int
    row_count: int
    statistics: object | None


@dataclass
class CachedPlan:
    """One cached template plan plus everything needed to validate/re-bind it."""

    plan: object                      # SelectPlan | DmlPlan
    statement: Statement              # parameterized template statement
    params: list[ParamLiteral]        # canonical-order parameter nodes
    snapshots: list[_TableSnapshot] = field(default_factory=list)
    hits: int = 0

    def bind(self, values: list) -> None:
        """Point the template's parameter nodes at a new instance's constants.

        The nodes are shared by the plan's operator tree and statement, so
        this one pass re-binds the whole plan.  ``Literal`` is frozen, hence
        the ``object.__setattr__``.

        Aggregate plans re-bind the same way: the plan's aggregate stage keys
        its spec slots by the template statement's node identities, its
        memoized compiled getters read only row positions (parameter values
        are read per call), and accumulators are created fresh per execution —
        nothing caches a bound constant.
        """
        _bind(self.params, values)


class PlanCache:
    """An LRU cache of template plans with version/drift invalidation.

    ``resolve_table`` maps a lower-cased table name to the owning database's
    current :class:`~repro.storage.table.Table` (or None), used to detect
    drops and re-creates by object identity.
    """

    def __init__(
        self,
        resolve_table,
        capacity: int = DEFAULT_PLAN_CACHE_SIZE,
    ):
        self._resolve = resolve_table
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        self._templates: OrderedDict[str, _TemplateKey] = OrderedDict()
        #: Raw text → its prepared statement and the token template it binds.
        self._statements: OrderedDict[str, tuple] = OrderedDict()
        #: The admitted token template of each shape.
        self._token_templates: OrderedDict[tuple, _TokenTemplate] = OrderedDict()
        self._stats = PlanCacheStats(capacity=capacity)

    # -- statement cache (raw text → prepared statement) --------------------------

    def lookup_statement(
        self, text: str
    ) -> tuple[PreparedStatement | None, list[Token] | None]:
        """``(prepared, None)`` for raw SQL text the cache answers without a
        parse, else ``(None, tokens)``: the text's tokens when it was
        tokenized, for the parse to read.

        A byte-identical text is a dict lookup; otherwise the text is
        tokenized and its token template looked up, and a hit binds the
        literal tokens' values.  Either way the prepared statement's
        parameter nodes are bound to the text's own constants before
        returning: the nodes are shared with the plan-cache template, so an
        execution of a *different* instance of the same template may have
        left other values in them.
        """
        memo = self._statements.get(text)
        if memo is not None:
            self._statements.move_to_end(text)
            prepared, entry = memo
            if self._token_templates.get(entry.shape) is not entry:
                # A text of the shape with other pinned tokens took its place:
                # the shape's next text most likely pins what this one does.
                self._token_templates[entry.shape] = entry
                _trim(self._token_templates, self.capacity)
            _bind(prepared.params, prepared.values)
            self._stats.statement_hits += 1
            return prepared, None
        head = text[:64].lstrip()
        if head and head[:6].upper() not in _CACHEABLE_STARTS and head[:2] not in ("--", "/*"):
            return None, None  # an INSERT or DDL text: the parse is its one reader
        try:
            tokens = tokenize(text)
            shape, literals, values = _token_template(tokens)
        except ReproError:
            return None, None  # the parse raises it
        entry = self._token_templates.get(shape)
        if entry is None or any(literals[i].value != raw for i, raw in entry.pinned):
            return None, tokens
        self._token_templates.move_to_end(shape)
        admitted = entry.prepared
        bound = [
            values[slot] if slot >= 0 else value
            for slot, value in zip(entry.slots, admitted.values)
        ]
        _bind(admitted.params, bound)
        prepared = PreparedStatement(
            statement=admitted.statement,
            key=admitted.key,
            values=bound,
            params=admitted.params,
            table_names=admitted.table_names,
            template=admitted.template,
        )
        self._remember(text, prepared, entry)
        self._stats.statement_hits += 1
        self._stats.template_hits += 1
        return prepared, None

    def store_statement(
        self,
        text: str,
        statement: Statement,
        tokens: list[Token],
        sources: list[tuple[Literal, Token]],
    ) -> PreparedStatement:
        """Prepare a freshly parsed SELECT/UPDATE/DELETE, remember it under
        its raw SQL text and admit the text's token template.

        ``statement`` is the parse of ``tokens``, the text's tokens, and
        ``sources`` the parse's ``(Literal, Token)`` record (see
        :func:`~repro.sql.parser.parse`).  Counts one statement-cache miss,
        so the hit rate reflects cacheable traffic only.  The memo needs no
        data-dependent invalidation — it maps text to an AST, and planning
        re-resolves tables against the live catalog every time.

        The parser makes a literal node of a NUMBER/STRING token only with
        that token's value, and reads any other literal token as an integer
        that makes no node.  So a text with the same token stream, pinned
        tokens written the same, parses to this statement with its own
        constants in the recorded places: the template needs no proof.
        """
        prepared = self.prepare(statement)
        self._stats.statement_misses += 1
        shape, literals, _ = _token_template(tokens)
        index = {token: i for i, token in enumerate(literals)}
        # ``sources`` keeps each node alive, so no id is reused meanwhile.
        made_from = {id(literal): index[token] for literal, token in sources}
        # parameterize_statement makes a parameter of each non-NULL literal
        # in walk order; prepare put them in canonical order.
        made = [
            made_from.get(id(node), -1)
            for node in walk(statement)
            if type(node) is Literal and node.value is not None
        ]
        slots = tuple(made[i] for i in self._templates[prepared.key[2]].order)
        unread = set(range(len(literals))) - set(slots)
        prepared.template = tuple(
            part + "=" + token.value if index.get(token) in unread else part
            for part, token in zip(shape, tokens)
        )
        entry = self._token_templates[shape] = _TokenTemplate(
            shape=shape,
            prepared=prepared,
            slots=slots,
            pinned=tuple((i, literals[i].value) for i in sorted(unread)),
        )
        self._token_templates.move_to_end(shape)
        _trim(self._token_templates, self.capacity)
        self._remember(text, prepared, entry)
        return prepared

    def _remember(self, text: str, prepared: PreparedStatement, entry: _TokenTemplate) -> None:
        self._statements[text] = (prepared, entry)
        _trim(self._statements, self.capacity)

    # -- keying ------------------------------------------------------------------

    def prepare(self, statement: Statement) -> PreparedStatement:
        """Parameterize and key a statement for lookup/store."""
        parameterized, surface_params = parameterize_statement(statement)
        surface = format_statement(parameterized)
        template = self._templates.get(surface)
        if template is None:
            canonical = canonical_statement(parameterized)
            position = {id(param): i for i, param in enumerate(surface_params)}
            template = _TemplateKey(
                canonical=format_statement(canonical),
                order=[position[id(param)] for param in collect_parameters(canonical)],
                table_names=_statement_table_names(parameterized),
            )
            self._templates[surface] = template
            _trim(self._templates, self.capacity)
        else:
            self._templates.move_to_end(surface)
        ordered = [surface_params[i] for i in template.order]
        values = [param.value for param in ordered]
        key = (
            template.canonical,
            tuple(type(value).__name__ for value in values),
            surface,
        )
        return PreparedStatement(
            statement=parameterized,
            key=key,
            values=values,
            params=ordered,
            table_names=template.table_names,
        )

    # -- lookup / store ------------------------------------------------------------

    def lookup(self, prepared: PreparedStatement, count: bool = True) -> CachedPlan | None:
        """Return a fresh, re-bound cached plan for the template, or None.

        Stale entries (DDL mismatch, dropped/re-created table, drift past the
        budget) are evicted so a stale plan can never be executed.  With
        ``count=False`` the lookup leaves the hit/miss counters untouched
        (used by EXPLAIN so inspection does not skew the hit rate).
        """
        entry = self._entries.get(prepared.key)
        if entry is not None:
            reason = self._staleness(entry)
            if reason is not None:
                del self._entries[prepared.key]
                if reason == "ddl":
                    self._stats.invalidated_ddl += 1
                else:
                    self._stats.invalidated_drift += 1
                entry = None
            elif len(entry.params) != len(prepared.values):
                # Defensive: a key collision between different templates.
                del self._entries[prepared.key]
                entry = None
        if entry is None:
            if count:
                self._stats.misses += 1
            return None
        self._entries.move_to_end(prepared.key)
        entry.bind(prepared.values)
        if count:
            self._stats.hits += 1
            entry.hits += 1
        return entry

    def store(self, prepared: PreparedStatement, plan: object) -> CachedPlan | None:
        """Cache a freshly planned template; returns the entry (or None).

        The plan must have been produced from ``prepared.statement`` so the
        parameter nodes are shared between the plan and the cache entry.
        """
        snapshots = []
        for name in prepared.table_names:
            table = self._resolve(name)
            if table is None:
                return None  # planning raced a drop; do not cache
            snapshots.append(
                _TableSnapshot(
                    name=name,
                    table=table,
                    schema_version=table.schema_version,
                    version=table.version,
                    row_count=len(table),
                    statistics=table.cached_statistics,
                )
            )
        entry = CachedPlan(
            plan=plan,
            statement=prepared.statement,
            params=prepared.params,
            snapshots=snapshots,
        )
        self._entries[prepared.key] = entry
        self._entries.move_to_end(prepared.key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
        return entry

    # -- invalidation ----------------------------------------------------------------

    def _staleness(self, entry: CachedPlan) -> str | None:
        """Why the entry is stale: ``"ddl"``, ``"drift"``, or None (fresh)."""
        for snapshot in entry.snapshots:
            current = self._resolve(snapshot.name)
            if current is not snapshot.table:
                return "ddl"  # dropped, or dropped and re-created
            if current.schema_version != snapshot.schema_version:
                return "ddl"
            if current.version == snapshot.version:
                continue
            row_count = len(current)
            population = max(row_count, snapshot.row_count, 1)
            drift = abs(row_count - snapshot.row_count) / population
            # Mutation churn relative to table size: catches update-heavy
            # workloads that rewrite values while the row count stays flat
            # (statistics are usually cold there — every mutation clears the
            # cached snapshot — so histogram distance alone would miss it).
            drift = max(drift, (current.version - snapshot.version) / population)
            current_stats = current.cached_statistics
            if snapshot.statistics is not None and current_stats is not None:
                drift = max(drift, snapshot.statistics.drift(current_stats))
            if drift > DEFAULT_MAX_DRIFT:
                return "drift"
        return None

    # -- bookkeeping ----------------------------------------------------------------

    def stats(self) -> PlanCacheStats:
        self._stats.size = len(self._entries)
        self._stats.capacity = self.capacity
        return self._stats


def _statement_table_names(statement: Statement) -> tuple[str, ...]:
    """Lower-cased names of every base table a statement touches.

    Expression-level subqueries are included too: they are planned fresh at
    execution time, so invalidating on their tables is merely conservative.
    """
    names = {node.name.lower() for node in walk(statement) if isinstance(node, TableRef)}
    if isinstance(statement, (UpdateStatement, DeleteStatement)):
        names.add(statement.table.lower())
    return tuple(sorted(names))


def _trim(table: OrderedDict, capacity: int) -> None:
    """Drop a statement-side table's least recently used entries past its
    bound (four per cached plan, at least 64)."""
    while len(table) > max(4 * capacity, 64):
        table.popitem(last=False)


def _bind(params: list[ParamLiteral], values: list) -> None:
    for param, value in zip(params, values):
        object.__setattr__(param, "value", value)


#: How a literal token is written in a token template: its kind, not its text.
_KINDS = {int: "'int", float: "'float", str: "'text"}


def _token_template(tokens: list[Token]) -> tuple[tuple, list[Token], list]:
    """``(shape, literal tokens, their values)`` of a token stream.

    The shape is the stream with each NUMBER/STRING token written as its
    kind (``5``, ``5.0`` and ``'5'`` differ) and each identifier marked as
    one (a quoted ``"SELECT"`` is not the keyword).
    """
    shape: list[str] = []
    literals: list[Token] = []
    values: list = []
    for token in tokens:
        kind = token.type
        if kind is TokenType.NUMBER or kind is TokenType.STRING:
            value = number_value(token.value) if kind is TokenType.NUMBER else token.value
            shape.append(_KINDS[type(value)])
            literals.append(token)
            values.append(value)
        elif kind is TokenType.IDENTIFIER:
            shape.append('"' + token.value)
        else:
            shape.append(token.value)
    return tuple(shape), literals, values
