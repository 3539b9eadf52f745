"""Datalog engine and the SociaLite front-end."""

from .engine import SocialiteEngine
from .rules import Assign, Atom, Head, Rule, Var
from .table import AggregateTable, TupleTable

__all__ = [
    "AggregateTable",
    "Assign",
    "Atom",
    "Head",
    "Rule",
    "SocialiteEngine",
    "TupleTable",
    "Var",
]
