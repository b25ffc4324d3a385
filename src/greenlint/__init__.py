"""greenlint: detect and auto-fix Android energy code smells.

Five rules over Java and layout XML sources (ViewHolder, DrawAllocation,
WakeLock, Recycle, ObsoleteLayoutParam), built on lossless span-annotated
parse trees and byte-range edits, plus a corpus harness that aggregates
findings across many projects.
"""
