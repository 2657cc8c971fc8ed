"""Batch claim verification: key-point query expansion, BM25 retrieval over
per-claim knowledge stores, zero-shot LLM verdicts with cited evidence, and
Hungarian-METEOR scoring with the conditioned-label metric."""

from .bm25 import Bm25Index, ScoredDoc, build_index, retrieve, tokenize
from .config import RunConfig
from .corpus import (AnswerType, ClaimRecord, DocRef, EvidenceItem, GoldQA, KnowledgeStore,
                     UrlEntry, VerdictLabel, VerdictReport, load_claims, load_predictions,
                     load_store, resolve, write_predictions)
from .keypoints import (KeyPointSet, PromptLibrary, build_keypoint_prompt, make_keypoints,
                        parse_keypoints)
from .llm_gateway import (ChatRequest, ChatResponse, ContextOverflow, Gateway, GatewayError,
                          HttpBackend, MalformedReply, MockBackend, RateLimited,
                          TransportFailure)
from .pipeline import (RetrievalGroup, build_prediction_prompt, build_unified_string,
                       parse_prediction, predict_with_retry, run_batch, run_claim,
                       run_retrieval)
from .scoring import ClaimScore, ScoreReport, evidence_score, hungarian_max, meteor, score_run
