"""scripts/output_hashes.py's hashing function on a run small enough for the fast suite."""
import importlib.util
from pathlib import Path

from statseg.data import SynthConfig
from statseg.grid import GridShape
from statseg.model import ModelConfig
from statseg.training import AblationConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_hashes.py"


def load_script():
    spec = importlib.util.spec_from_file_location("output_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_hash_repeats():
    hashes = load_script()
    synth = SynthConfig(shape=GridShape(8, 8), n_samples=6, seed=3)
    model = ModelConfig(GridShape(8, 8), base_channels=2, seed=3)
    ablation = AblationConfig(mode="combined", epochs=2, batch_size=2, seed=3)
    first = hashes.output_hash(synth, model, ablation)
    digest, iou = first.split()
    assert len(digest) == hashes.HASH_DIGITS and 0.0 <= float(iou) <= 1.0
    assert hashes.output_hash(synth, model, ablation) == first
