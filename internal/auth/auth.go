// Package auth implements MyStore's URI-based digital signatures (paper
// §4, Fig 2). RESTful interfaces are stateless, so requests cannot be
// authorized through sessions or cookies; instead each request carries a
// token and an MD5 digest over (token, request URI, secret key). The secret
// key identifies a user durably; a token identifies a single request and is
// issued from the token DB.
package auth

import (
	"crypto/md5"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/url"
	"sync"
	"time"

	"mystore/internal/uuid"
)

// Signature query parameters appended to authorized request URIs.
const (
	ParamToken = "token"
	ParamSign  = "sign"
)

// Errors returned by verification.
var (
	ErrUnknownUser  = errors.New("auth: unknown user")
	ErrBadToken     = errors.New("auth: token unknown or expired")
	ErrBadSignature = errors.New("auth: signature mismatch")
	ErrTokenReplay  = errors.New("auth: token already used")
)

// Sign computes the digest signature for a request: MD5 over the token,
// the canonical request URI (path plus sorted data parameters, excluding
// the signature parameters themselves) and the user's secret key.
func Sign(token, requestURI, secret string) string {
	sum := md5.Sum([]byte(token + "\n" + requestURI + "\n" + secret))
	return hex.EncodeToString(sum[:])
}

// CanonicalURI strips the signature parameters from a URI so signer and
// verifier digest identical bytes.
func CanonicalURI(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("auth: bad uri: %w", err)
	}
	q := u.Query()
	q.Del(ParamToken)
	q.Del(ParamSign)
	u.RawQuery = q.Encode()
	return u.RequestURI(), nil
}

// TokenDB issues single-request tokens and stores user secrets, playing
// the paper's "TOKEN DB" role. It is safe for concurrent use.
type TokenDB struct {
	mu      sync.Mutex
	secrets map[string]string // user -> secret key
	tokens  map[string]tokenInfo
	ttl     time.Duration
	now     func() time.Time
}

type tokenInfo struct {
	user   string
	issued time.Time
	used   bool
}

// NewTokenDB returns a token DB with the given token lifetime (zero means
// 5 minutes).
func NewTokenDB(ttl time.Duration) *TokenDB {
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	return &TokenDB{
		secrets: make(map[string]string),
		tokens:  make(map[string]tokenInfo),
		ttl:     ttl,
		now:     time.Now,
	}
}

// Register creates a user and returns their generated secret key.
func (db *TokenDB) Register(user string) (string, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", fmt.Errorf("auth: generate secret: %w", err)
	}
	secret := hex.EncodeToString(buf[:])
	db.mu.Lock()
	defer db.mu.Unlock()
	db.secrets[user] = secret
	return secret, nil
}

// secret returns the user's secret key.
func (db *TokenDB) secret(user string) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.secrets[user]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	return s, nil
}

// IssueToken creates a fresh single-request token for the user.
func (db *TokenDB) IssueToken(user string) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.secrets[user]; !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	token := uuid.NewUUID().String()
	db.tokens[token] = tokenInfo{user: user, issued: db.now()}
	return token, nil
}

// Verify checks a request URI's token and signature, consuming the token.
// On success it returns the authenticated user.
func (db *TokenDB) Verify(rawURI string) (string, error) {
	u, err := url.Parse(rawURI)
	if err != nil {
		return "", fmt.Errorf("auth: bad uri: %w", err)
	}
	q := u.Query()
	token := q.Get(ParamToken)
	sign := q.Get(ParamSign)
	if token == "" || sign == "" {
		return "", ErrBadSignature
	}
	canonical, err := CanonicalURI(rawURI)
	if err != nil {
		return "", err
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	info, ok := db.tokens[token]
	if !ok {
		return "", ErrBadToken
	}
	if db.now().Sub(info.issued) > db.ttl {
		delete(db.tokens, token)
		return "", ErrBadToken
	}
	if info.used {
		return "", ErrTokenReplay
	}
	secret := db.secrets[info.user]
	if Sign(token, canonical, secret) != sign {
		return "", ErrBadSignature
	}
	info.used = true
	db.tokens[token] = info
	return info.user, nil
}

// AuthorizeURI is the client-side helper (the paper's "new authorized
// request URI"): given a base URI, a token and the secret, it returns the
// URI with token and signature parameters attached.
func AuthorizeURI(rawURI, token, secret string) (string, error) {
	canonical, err := CanonicalURI(rawURI)
	if err != nil {
		return "", err
	}
	u, err := url.Parse(rawURI)
	if err != nil {
		return "", err
	}
	q := u.Query()
	q.Set(ParamToken, token)
	q.Set(ParamSign, Sign(token, canonical, secret))
	u.RawQuery = q.Encode()
	return u.String(), nil
}

// pruneExpired removes expired tokens.
func (db *TokenDB) pruneExpired() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	now := db.now()
	removed := 0
	for tok, info := range db.tokens {
		if now.Sub(info.issued) > db.ttl {
			delete(db.tokens, tok)
			removed++
		}
	}
	return removed
}
