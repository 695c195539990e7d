"""Every NumericConfig field is read somewhere in the engine or verifier.

A field nothing reads is a knob whose settings all give the same output;
a limit that never varies is a constant of the module that applies it."""

import dataclasses
import re
from pathlib import Path

import pdegensol
from pdegensol.numeric import NumericConfig

SRC = Path(pdegensol.__file__).resolve().parent


def test_every_config_field_is_read():
    text = "\n".join(p.read_text() for p in sorted(SRC.rglob("*.py"))
                     if p != SRC / "numeric" / "config.py")
    unread = [f.name for f in dataclasses.fields(NumericConfig)
              if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []
