"""The AST's one traversal: ``CHILD_FIELDS``, ``walk`` and ``rebuild``.

Every node class gets an instance with a distinct :class:`Literal` in each
child slot; ``walk`` must reach every one of them and ``rebuild`` must offer
every one to its function.  The instances are written out here, not derived
from the table, so a node class added without its child fields fails.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools

import pytest

from repro.sql import ast_nodes
from repro.sql.ast_nodes import (
    AlterTableStatement,
    Between,
    BinaryOp,
    CaseExpression,
    ColumnDefinition,
    ColumnRef,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    ExistsSubquery,
    FunctionCall,
    InList,
    InsertStatement,
    InSubquery,
    Join,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
    UpdateStatement,
    iter_expressions,
    rebuild,
    walk,
)
from repro.sql.canonicalize import ParamLiteral
from repro.sql.parser import parse
from repro.storage.binder import BoundColumn


def _instances():
    """``class -> (instance, the Literals in its child slots)``."""
    counter = itertools.count()
    placed: list[Literal] = []

    def lit() -> Literal:
        placed.append(Literal(f"v{next(counter)}"))
        return placed[-1]

    factories = {
        Literal: lambda: Literal(1),
        ParamLiteral: lambda: ParamLiteral(1),
        ColumnRef: lambda: ColumnRef("a", "t"),
        BoundColumn: lambda: BoundColumn("a", "t", binding="t"),
        Star: lambda: Star("t"),
        BinaryOp: lambda: BinaryOp("+", lit(), lit()),
        UnaryOp: lambda: UnaryOp("-", lit()),
        FunctionCall: lambda: FunctionCall("f", (lit(), lit())),
        InList: lambda: InList(lit(), (lit(), lit())),
        InSubquery: lambda: InSubquery(lit(), lit()),
        ExistsSubquery: lambda: ExistsSubquery(lit()),
        ScalarSubquery: lambda: ScalarSubquery(lit()),
        Between: lambda: Between(lit(), lit(), lit()),
        CaseExpression: lambda: CaseExpression(((lit(), lit()), (lit(), lit())), lit()),
        SelectItem: lambda: SelectItem(lit(), "x"),
        TableRef: lambda: TableRef("t", "a"),
        SubqueryRef: lambda: SubqueryRef(lit(), "d"),
        Join: lambda: Join("INNER", lit(), lit(), lit()),
        OrderItem: lambda: OrderItem(lit()),
        SelectStatement: lambda: SelectStatement(
            (lit(), lit()), (lit(),), lit(), (lit(),), lit(), (lit(),), 5, 1, True
        ),
        InsertStatement: lambda: InsertStatement("t", ("a",), ((lit(), lit()),), lit()),
        UpdateStatement: lambda: UpdateStatement("t", (("a", lit()), ("b", lit())), lit()),
        DeleteStatement: lambda: DeleteStatement("t", lit()),
        ColumnDefinition: lambda: ColumnDefinition("a", "INTEGER"),
        CreateTableStatement: lambda: CreateTableStatement("t", (lit(), lit())),
        DropTableStatement: lambda: DropTableStatement("t"),
        AlterTableStatement: lambda: AlterTableStatement("t", "add_column", lit()),
        CreateIndexStatement: lambda: CreateIndexStatement("i", "t", "a"),
    }
    instances = {}
    for cls, factory in factories.items():
        placed.clear()
        instances[cls] = (factory(), list(placed))
    return instances


INSTANCES = _instances()


def _node_classes() -> set[type]:
    return {
        cls
        for _, cls in inspect.getmembers(ast_nodes, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == ast_nodes.__name__
    }


def test_every_node_class_has_an_instance_here():
    assert set(INSTANCES) == _node_classes() | {BoundColumn, ParamLiteral}


def test_every_node_class_is_in_the_table():
    assert _node_classes() <= set(ast_nodes.CHILD_FIELDS)


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_walk_reaches_every_child_slot(cls):
    node, literals = INSTANCES[cls]
    seen = [id(child) for child in walk(node)]
    assert seen[0] == id(node)
    assert [id(literal) for literal in literals] == [
        item for item in seen if item in {id(literal) for literal in literals}
    ]  # each slot once, in field order
    assert len(seen) == 1 + len(literals)


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_rebuild_offers_every_child_and_keeps_identity(cls):
    node, literals = INSTANCES[cls]
    assert rebuild(node, lambda child: child) is node
    offered = []
    rebuilt = rebuild(node, lambda child: offered.append(child) or Literal("new"))
    assert [id(child) for child in offered] == [id(literal) for literal in literals]
    if literals:
        assert type(rebuilt) is cls and rebuilt is not node
        assert [child for child in walk(rebuilt) if child is not rebuilt] == [
            Literal("new")
        ] * len(literals)
        # Fields that hold no child are carried over.
        for field in dataclasses.fields(cls):
            value = getattr(node, field.name)
            if not isinstance(value, (Literal, tuple)) and value is not None:
                assert getattr(rebuilt, field.name) == value


def test_walk_is_pre_order_and_stops_at_subqueries_on_request():
    statement = parse(
        "SELECT a.x FROM a JOIN (SELECT y FROM b) d ON a.x = d.y "
        "WHERE a.x IN (SELECT z FROM c WHERE c.z > 1) AND a.w = 2"
    )
    tables = [node.name for node in walk(statement) if isinstance(node, TableRef)]
    assert tables == ["a", "b", "c"]
    outer = [node for node in walk(statement, subqueries=False) if isinstance(node, TableRef)]
    assert [node.name for node in outer] == ["a"]
    literals = [node.value for node in walk(statement) if isinstance(node, Literal)]
    assert literals == [1, 2]
    where = iter_expressions(statement.where)
    assert [node.value for node in where if isinstance(node, Literal)] == [2]


def test_a_value_that_is_not_a_node_raises():
    with pytest.raises(TypeError, match="not an AST node"):
        list(walk("SELECT 1"))
