"""Property-based invariant tests for the game-engine substrates.

Random legal play must never violate the rules' structural invariants
— the kind of deep correctness the fixed-example tests cannot cover.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.deepsjeng import KING, START_FEN, Position
from repro.benchmarks.leela import BLACK, EMPTY, WHITE, GoBoard, _legal_moves


class TestChessInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_play_preserves_kings(self, seed):
        """Kings are never captured: every legal move sequence keeps
        both kings on the board."""
        rng = random.Random(seed)
        pos = Position.from_fen(START_FEN)
        for _ in range(rng.randint(5, 30)):
            moves = pos.legal_moves()
            if not moves:
                break
            pos = pos.make_move(rng.choice(moves))
            board_pieces = [p for p in pos.board if p != 0]
            assert board_pieces.count(KING) == 1
            assert board_pieces.count(-KING) == 1

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_moves_never_leave_mover_in_check(self, seed):
        rng = random.Random(seed)
        pos = Position.from_fen(START_FEN)
        for _ in range(rng.randint(3, 20)):
            moves = pos.legal_moves()
            if not moves:
                break
            mover_is_white = pos.white_to_move
            pos = pos.make_move(rng.choice(moves))
            king = pos.find_king(mover_is_white)
            assert king >= 0
            assert not pos.attacked_by(king, not mover_is_white)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_piece_count_never_increases(self, seed):
        rng = random.Random(seed)
        pos = Position.from_fen(START_FEN)
        count = sum(1 for p in pos.board if p != 0)
        for _ in range(rng.randint(3, 25)):
            moves = pos.legal_moves()
            if not moves:
                break
            pos = pos.make_move(rng.choice(moves))
            new_count = sum(1 for p in pos.board if p != 0)
            assert new_count <= count
            count = new_count

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_pseudo_captures_are_the_captures_of_pseudo_moves(self, seed):
        """The capture-only generator yields exactly the captures of the
        full generator, in the same order (en passant included)."""
        rng = random.Random(seed)
        pos = Position.from_fen(START_FEN)
        for _ in range(rng.randint(5, 60)):
            assert pos.pseudo_captures() == [m for m in pos.pseudo_moves() if m[2] != 0]
            moves = pos.legal_moves()
            if not moves:
                break
            captures = [m for m in moves if m[2] != 0]
            pos = pos.make_move(rng.choice(captures if captures and rng.random() < 0.5 else moves))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_hash_consistency(self, seed):
        """Incremental Zobrist hashing equals recomputation from scratch."""
        rng = random.Random(seed)
        pos = Position.from_fen(START_FEN)
        for _ in range(rng.randint(2, 15)):
            moves = pos.legal_moves()
            if not moves:
                break
            pos = pos.make_move(rng.choice(moves))
        fresh = Position.from_fen(pos.to_fen())
        assert fresh.hash_ == pos.hash_


class TestGoInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_no_zero_liberty_groups_after_play(self, seed):
        """After any legal move, no group on the board has zero
        liberties (captures resolve atomically)."""
        rng = random.Random(seed)
        board = GoBoard(9)
        color = BLACK
        for _ in range(rng.randint(5, 40)):
            legal = _legal_moves(board, color)
            if not legal:
                break
            board.play(rng.choice(legal), color)
            for p in range(81):
                if board.cells[p] != EMPTY:
                    _, libs = board._group_and_liberties(p)
                    assert libs > 0
            color = BLACK + WHITE - color

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_captures_counter_matches_board(self, seed):
        """Stones placed minus stones on board equals stones captured."""
        rng = random.Random(seed)
        board = GoBoard(9)
        color = BLACK
        placed = 0
        for _ in range(rng.randint(5, 50)):
            legal = _legal_moves(board, color)
            if not legal:
                break
            board.play(rng.choice(legal), color)
            placed += 1
            color = BLACK + WHITE - color
        on_board = sum(1 for c in board.cells if c != EMPTY)
        captured = board.captures[BLACK] + board.captures[WHITE]
        assert placed == on_board + captured

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_score_bounded_by_board_area(self, seed):
        rng = random.Random(seed)
        board = GoBoard(9)
        color = BLACK
        for _ in range(rng.randint(5, 30)):
            legal = _legal_moves(board, color)
            if not legal:
                break
            board.play(rng.choice(legal), color)
            color = BLACK + WHITE - color
        score = board.score()
        assert -(81 + 7) <= score <= 81 + 7

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_copy_is_independent(self, seed):
        rng = random.Random(seed)
        board = GoBoard(9)
        board.play(40, BLACK)
        clone = board.copy()
        legal = _legal_moves(clone, WHITE)
        clone.play(rng.choice(legal), WHITE)
        assert board.cells.count(EMPTY) == 80  # original untouched
