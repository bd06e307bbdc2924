import sys
from pathlib import Path

# The benchmark's own tests import gridfire from the checkout's sources.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
