package auth

import (
	"errors"
	"testing"
	"time"
)

func TestRegisterAndSecret(t *testing.T) {
	db := NewTokenDB(0)
	secret, err := db.Register("alice")
	if err != nil || secret == "" {
		t.Fatalf("Register = %q, %v", secret, err)
	}
	got, err := db.secret("alice")
	if err != nil || got != secret {
		t.Fatalf("Secret = %q, %v", got, err)
	}
	if _, err := db.secret("bob"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("Secret(bob) err = %v", err)
	}
}

func TestIssueTokenRequiresUser(t *testing.T) {
	db := NewTokenDB(0)
	if _, err := db.IssueToken("nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

// TestFullSignatureFlow walks the paper's Fig 2 sequence: get token, build
// digest over token + URI + secret, attach, verify.
func TestFullSignatureFlow(t *testing.T) {
	db := NewTokenDB(0)
	secret, _ := db.Register("alice")
	token, err := db.IssueToken("alice")
	if err != nil {
		t.Fatal(err)
	}
	authorized, err := AuthorizeURI("/data/Resistor5?fmt=xml", token, secret)
	if err != nil {
		t.Fatal(err)
	}
	user, err := db.Verify(authorized)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if user != "alice" {
		t.Fatalf("Verify user = %q", user)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	db := NewTokenDB(0)
	secret, _ := db.Register("alice")
	token, _ := db.IssueToken("alice")
	authorized, _ := AuthorizeURI("/data/item1", token, secret)
	// Tamper with the path.
	tampered := authorized[:len("/data/item")] + "2" + authorized[len("/data/item1"):]
	if _, err := db.Verify(tampered); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered path err = %v", err)
	}
}

func TestVerifyRejectsWrongSecret(t *testing.T) {
	db := NewTokenDB(0)
	db.Register("alice") //nolint:errcheck
	token, _ := db.IssueToken("alice")
	authorized, _ := AuthorizeURI("/data/x", token, "wrong-secret")
	if _, err := db.Verify(authorized); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong secret err = %v", err)
	}
}

func TestVerifyRejectsUnknownToken(t *testing.T) {
	db := NewTokenDB(0)
	secret, _ := db.Register("alice")
	authorized, _ := AuthorizeURI("/data/x", "fabricated-token", secret)
	if _, err := db.Verify(authorized); !errors.Is(err, ErrBadToken) {
		t.Fatalf("unknown token err = %v", err)
	}
}

func TestVerifyRejectsMissingParams(t *testing.T) {
	db := NewTokenDB(0)
	if _, err := db.Verify("/data/x"); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("no params err = %v", err)
	}
}

func TestTokenSingleUse(t *testing.T) {
	db := NewTokenDB(0)
	secret, _ := db.Register("alice")
	token, _ := db.IssueToken("alice")
	authorized, _ := AuthorizeURI("/data/x", token, secret)
	if _, err := db.Verify(authorized); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Verify(authorized); !errors.Is(err, ErrTokenReplay) {
		t.Fatalf("replay err = %v", err)
	}
}

func TestTokenExpiry(t *testing.T) {
	db := NewTokenDB(time.Minute)
	now := time.Unix(1000, 0)
	db.now = func() time.Time { return now }
	secret, _ := db.Register("alice")
	token, _ := db.IssueToken("alice")
	authorized, _ := AuthorizeURI("/data/x", token, secret)
	now = now.Add(2 * time.Minute)
	if _, err := db.Verify(authorized); !errors.Is(err, ErrBadToken) {
		t.Fatalf("expired token err = %v", err)
	}
}

func TestPruneExpired(t *testing.T) {
	db := NewTokenDB(time.Minute)
	now := time.Unix(1000, 0)
	db.now = func() time.Time { return now }
	db.Register("alice") //nolint:errcheck
	for i := 0; i < 5; i++ {
		db.IssueToken("alice") //nolint:errcheck
	}
	now = now.Add(2 * time.Minute)
	fresh, _ := db.IssueToken("alice")
	if removed := db.pruneExpired(); removed != 5 {
		t.Fatalf("PruneExpired = %d, want 5", removed)
	}
	// The fresh token remains usable.
	secret, _ := db.secret("alice")
	authorized, _ := AuthorizeURI("/data/x", fresh, secret)
	if _, err := db.Verify(authorized); err != nil {
		t.Fatalf("fresh token rejected after prune: %v", err)
	}
}

func TestSignDeterministicAndSensitive(t *testing.T) {
	a := Sign("tok", "/data/x", "secret")
	if a != Sign("tok", "/data/x", "secret") {
		t.Fatal("Sign not deterministic")
	}
	if a == Sign("tok2", "/data/x", "secret") ||
		a == Sign("tok", "/data/y", "secret") ||
		a == Sign("tok", "/data/x", "secret2") {
		t.Fatal("Sign insensitive to an input")
	}
	if len(a) != 32 {
		t.Fatalf("Sign length = %d, want 32 hex chars (MD5)", len(a))
	}
}

func TestCanonicalURIStripsOnlySignatureParams(t *testing.T) {
	got, err := CanonicalURI("/data/x?b=2&token=t&a=1&sign=s")
	if err != nil {
		t.Fatal(err)
	}
	want := "/data/x?a=1&b=2"
	if got != want {
		t.Fatalf("CanonicalURI = %q, want %q", got, want)
	}
	if _, err := CanonicalURI("://bad"); err == nil {
		t.Fatal("bad URI accepted")
	}
}
