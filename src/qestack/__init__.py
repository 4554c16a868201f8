"""qe-stack: machine-translation quality estimation toolkit.

Edit-based word/gap/source labels and HTER from post-edits, a trainable
linear sequential word-level tagger, word- and sentence-level system
ensembling, document-level span/MQM prediction and the matching evaluation
metrics.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    PredictionSet,
    Ragged,
    Sentence,
    Stream,
    Tag,
    TaggedCorpus,
)
from .errors import QEStackError  # noqa: F401
