"""Lossless Java tokenizer and structural parser."""

from .lexer import Tokens, tokenize
from .parser import Node, SyntaxTree, parse_java_source

__all__ = ["Tokens", "tokenize", "Node", "SyntaxTree", "parse_java_source"]
