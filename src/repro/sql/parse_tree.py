"""Generic parse-tree view of a SQL statement.

The paper discusses three candidate data models for queries (Section 4.1):
raw text, feature relations, and canonicalized parse trees.  This module
provides the parse-tree model:

* :func:`to_parse_tree` converts an AST into a uniform labelled ordered tree,
* :func:`match_pattern` implements *query-by-parse-tree* (structural
  conditions on joined relations, selections, projections, subqueries, ...),
* :func:`tree_edit_distance` computes an ordered tree edit distance
  (Zhang–Shasha) used as one of the query-similarity measures (Section 4.3
  suggests "parse tree similarity, perhaps after removing the constants").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    ExistsSubquery,
    Expression,
    FromItem,
    FunctionCall,
    InList,
    InSubquery,
    Join,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from repro.sql.parser import parse


@dataclass(slots=True)
class ParseTreeNode:
    """A labelled, ordered tree node.

    ``label`` identifies the node kind (e.g. ``select``, ``table``,
    ``predicate-op``); ``value`` carries the specific content (table name,
    operator, literal text).  Children are ordered.  Slotted: the Query
    Storage retains one tree per distinct statement text, so a node carries
    no per-instance ``__dict__``.
    """

    label: str
    value: str = ""
    children: list["ParseTreeNode"] = field(default_factory=list)

    def add(self, child: "ParseTreeNode") -> "ParseTreeNode":
        self.children.append(child)
        return child

    def signature(self) -> str:
        """The node's comparison signature (label plus value)."""
        return f"{self.label}:{self.value}" if self.value else self.label

    def walk(self):
        """Yield this node and all descendants in pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, label: str) -> list["ParseTreeNode"]:
        """Return all descendant nodes (including self) with the given label."""
        return [node for node in self.walk() if node.label == label]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParseTreeNode({self.signature()}, {len(self.children)} children)"


def to_parse_tree(query, strip_constants: bool = False) -> ParseTreeNode:
    """Build the parse tree for SQL text or a parsed statement."""
    statement: Statement = parse(query) if isinstance(query, str) else query
    if isinstance(statement, SelectStatement):
        return _select_tree(statement, strip_constants)
    root = ParseTreeNode("statement", type(statement).__name__.lower())
    table = getattr(statement, "table", None)
    if table:
        root.add(ParseTreeNode("table", table.lower()))
    return root


def tree_size(node: ParseTreeNode) -> int:
    """Number of nodes in the tree."""
    return sum(1 for _ in node.walk())


def tree_depth(node: ParseTreeNode) -> int:
    """Height of the tree (a single node has depth 1)."""
    if not node.children:
        return 1
    return 1 + max(tree_depth(child) for child in node.children)


# ---------------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------------


def _select_tree(statement: SelectStatement, strip: bool) -> ParseTreeNode:
    root = ParseTreeNode("select")
    if statement.distinct:
        root.add(ParseTreeNode("distinct"))
    projection = root.add(ParseTreeNode("projection"))
    for item in statement.select_items:
        projection.add(_select_item_tree(item, strip))
    if statement.from_items:
        from_node = root.add(ParseTreeNode("from"))
        for item in statement.from_items:
            from_node.add(_from_tree(item, strip))
    if statement.where is not None:
        where = root.add(ParseTreeNode("where"))
        where.add(_expr_tree(statement.where, strip))
    if statement.group_by:
        group = root.add(ParseTreeNode("group_by"))
        for expr in statement.group_by:
            group.add(_expr_tree(expr, strip))
    if statement.having is not None:
        having = root.add(ParseTreeNode("having"))
        having.add(_expr_tree(statement.having, strip))
    if statement.order_by:
        order = root.add(ParseTreeNode("order_by"))
        for item in statement.order_by:
            direction = "asc" if item.ascending else "desc"
            key = order.add(ParseTreeNode("order_key", direction))
            key.add(_expr_tree(item.expression, strip))
    if statement.limit is not None:
        root.add(ParseTreeNode("limit", str(statement.limit)))
    return root


def _select_item_tree(item: SelectItem, strip: bool) -> ParseTreeNode:
    node = ParseTreeNode("select_item", item.alias.lower() if item.alias else "")
    node.add(_expr_tree(item.expression, strip))
    return node


def _from_tree(item: FromItem, strip: bool) -> ParseTreeNode:
    if isinstance(item, TableRef):
        return ParseTreeNode("table", item.name.lower())
    if isinstance(item, SubqueryRef):
        node = ParseTreeNode("derived_table", item.alias.lower())
        node.add(_select_tree(item.subquery, strip))
        return node
    if isinstance(item, Join):
        node = ParseTreeNode("join", item.join_type.lower())
        node.add(_from_tree(item.left, strip))
        node.add(_from_tree(item.right, strip))
        if item.condition is not None:
            condition = node.add(ParseTreeNode("on"))
            condition.add(_expr_tree(item.condition, strip))
        return node
    raise TypeError(f"unsupported FROM item: {type(item).__name__}")


def _expr_tree(expr: Expression, strip: bool) -> ParseTreeNode:
    if isinstance(expr, Literal):
        value = "?" if strip and expr.value is not None else _literal_text(expr)
        return ParseTreeNode("literal", value)
    if isinstance(expr, ColumnRef):
        qualified = f"{expr.table.lower()}.{expr.name.lower()}" if expr.table else expr.name.lower()
        return ParseTreeNode("column", qualified)
    if isinstance(expr, Star):
        return ParseTreeNode("star", expr.table.lower() if expr.table else "")
    if isinstance(expr, BinaryOp):
        node = ParseTreeNode("op", expr.op)
        node.add(_expr_tree(expr.left, strip))
        node.add(_expr_tree(expr.right, strip))
        return node
    if isinstance(expr, UnaryOp):
        node = ParseTreeNode("op", expr.op)
        node.add(_expr_tree(expr.operand, strip))
        return node
    if isinstance(expr, FunctionCall):
        node = ParseTreeNode("function", expr.name.upper())
        for arg in expr.args:
            node.add(_expr_tree(arg, strip))
        return node
    if isinstance(expr, InList):
        node = ParseTreeNode("op", "NOT IN" if expr.negated else "IN")
        node.add(_expr_tree(expr.expr, strip))
        values = node.add(ParseTreeNode("values"))
        for value in expr.values:
            values.add(_expr_tree(value, strip))
        return node
    if isinstance(expr, InSubquery):
        node = ParseTreeNode("op", "NOT IN" if expr.negated else "IN")
        node.add(_expr_tree(expr.expr, strip))
        node.add(_select_tree(expr.subquery, strip))
        return node
    if isinstance(expr, ExistsSubquery):
        node = ParseTreeNode("op", "NOT EXISTS" if expr.negated else "EXISTS")
        node.add(_select_tree(expr.subquery, strip))
        return node
    if isinstance(expr, ScalarSubquery):
        node = ParseTreeNode("scalar_subquery")
        node.add(_select_tree(expr.subquery, strip))
        return node
    if isinstance(expr, Between):
        node = ParseTreeNode("op", "NOT BETWEEN" if expr.negated else "BETWEEN")
        node.add(_expr_tree(expr.expr, strip))
        node.add(_expr_tree(expr.low, strip))
        node.add(_expr_tree(expr.high, strip))
        return node
    if isinstance(expr, CaseExpression):
        node = ParseTreeNode("case")
        for condition, value in expr.whens:
            when = node.add(ParseTreeNode("when"))
            when.add(_expr_tree(condition, strip))
            when.add(_expr_tree(value, strip))
        if expr.default is not None:
            default = node.add(ParseTreeNode("else"))
            default.add(_expr_tree(expr.default, strip))
        return node
    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


def _literal_text(literal: Literal) -> str:
    if literal.value is None:
        return "NULL"
    return str(literal.value)


# ---------------------------------------------------------------------------
# Structural pattern matching (query-by-parse-tree)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreePattern:
    """A structural condition on a query's parse tree.

    A pattern node matches a tree node when their labels are equal and the
    pattern's value (if non-empty) equals the tree node's value.  A pattern
    matches the tree when there exists a descendant of the tree for which the
    pattern root matches and every pattern child matches *some* descendant of
    that tree node (unordered containment — the natural semantics for
    "the query joins R and S and selects on attribute a").
    """

    label: str
    value: str = ""
    children: tuple["TreePattern", ...] = ()


def match_pattern(tree: ParseTreeNode, pattern: TreePattern) -> bool:
    """Return True if ``pattern`` matches anywhere inside ``tree``."""
    return any(_matches_at(node, pattern) for node in tree.walk())


def _matches_at(node: ParseTreeNode, pattern: TreePattern) -> bool:
    if node.label != pattern.label:
        return False
    if pattern.value and node.value != pattern.value:
        return False
    for child_pattern in pattern.children:
        if not any(
            _matches_at(descendant, child_pattern)
            for child in node.children
            for descendant in child.walk()
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Tree edit distance (Zhang–Shasha, ordered trees)
# ---------------------------------------------------------------------------


def tree_edit_distance(first: ParseTreeNode, second: ParseTreeNode) -> int:
    """Ordered tree edit distance with unit costs (Zhang–Shasha algorithm).

    Node relabelling, insertion, and deletion all cost 1.  Two nodes are equal
    when their :meth:`ParseTreeNode.signature` strings match.
    """
    a_nodes, a_lmd, a_keyroots = _decompose(first)
    b_nodes, b_lmd, b_keyroots = _decompose(second)
    size_a, size_b = len(a_nodes), len(b_nodes)
    distance = [[0] * size_b for _ in range(size_a)]

    def cost(i: int | None, j: int | None) -> int:
        if i is None or j is None:
            return 1
        return 0 if a_nodes[i].signature() == b_nodes[j].signature() else 1

    for i in a_keyroots:
        for j in b_keyroots:
            _tree_distance(i, j, a_lmd, b_lmd, distance, cost)
    return distance[size_a - 1][size_b - 1] if size_a and size_b else max(size_a, size_b)


def normalized_tree_distance(first: ParseTreeNode, second: ParseTreeNode) -> float:
    """Tree edit distance normalized by the larger tree size, in [0, 1]."""
    larger = max(tree_size(first), tree_size(second))
    if larger == 0:
        return 0.0
    return min(1.0, tree_edit_distance(first, second) / larger)


def _decompose(root: ParseTreeNode):
    """Post-order nodes, left-most-leaf-descendant indexes, and keyroots."""
    nodes: list[ParseTreeNode] = []
    lmd: list[int] = []

    def visit(node: ParseTreeNode) -> int:
        if not node.children:
            nodes.append(node)
            index = len(nodes) - 1
            lmd.append(index)
            return index
        first_leaf = None
        for child in node.children:
            child_leaf = visit(child)
            if first_leaf is None:
                first_leaf = child_leaf
        nodes.append(node)
        lmd.append(first_leaf if first_leaf is not None else len(nodes) - 1)
        return first_leaf if first_leaf is not None else len(nodes) - 1

    visit(root)
    seen: set[int] = set()
    keyroots: list[int] = []
    for index in range(len(nodes) - 1, -1, -1):
        if lmd[index] not in seen:
            keyroots.append(index)
            seen.add(lmd[index])
    keyroots.sort()
    return nodes, lmd, keyroots


def _tree_distance(i: int, j: int, a_lmd, b_lmd, distance, cost) -> None:
    li, lj = a_lmd[i], b_lmd[j]
    rows = i - li + 2
    cols = j - lj + 2
    forest = [[0] * cols for _ in range(rows)]
    for x in range(1, rows):
        forest[x][0] = forest[x - 1][0] + cost(li + x - 1, None)
    for y in range(1, cols):
        forest[0][y] = forest[0][y - 1] + cost(None, lj + y - 1)
    for x in range(1, rows):
        for y in range(1, cols):
            a_index = li + x - 1
            b_index = lj + y - 1
            if a_lmd[a_index] == li and b_lmd[b_index] == lj:
                forest[x][y] = min(
                    forest[x - 1][y] + cost(a_index, None),
                    forest[x][y - 1] + cost(None, b_index),
                    forest[x - 1][y - 1] + cost(a_index, b_index),
                )
                distance[a_index][b_index] = forest[x][y]
            else:
                p = a_lmd[a_index] - li
                q = b_lmd[b_index] - lj
                forest[x][y] = min(
                    forest[x - 1][y] + cost(a_index, None),
                    forest[x][y - 1] + cost(None, b_index),
                    forest[p][q] + distance[a_index][b_index],
                )
