from .lexer import IllegalCharacter
from .parser import parse, ParseError
from .resolver import (
    resolve,
    load_program,
    ProgramIndex,
    ResolveError,
    UnknownIdentifier,
    UnknownField,
    TypeMismatch,
    DuplicateDefinition,
)
from . import nodes

__all__ = [
    "IllegalCharacter",
    "parse", "ParseError",
    "resolve", "load_program", "ProgramIndex",
    "ResolveError", "UnknownIdentifier", "UnknownField", "TypeMismatch", "DuplicateDefinition",
    "nodes",
]
